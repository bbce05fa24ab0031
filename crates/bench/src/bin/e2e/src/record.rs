//! The benchmark's one record schema, its hand-rolled JSON writer and
//! reader (the workspace is offline: no serde), and `--compare`.

use std::fmt::Write as _;

use crate::catalog::{self, Better};
use crate::stats::Summary;

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eValue {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
    pub summary: Summary,
}

/// One per-layer metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadRecord {
    pub name: String,
    pub traced: bool,
    pub e2e: Vec<E2eValue>,
    pub per_layer: Vec<LayerValue>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// What each failed operation was.
    pub failures: Vec<String>,
}

/// A whole invocation: where and how it ran, then one entry per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub bench: String,
    pub git_rev: String,
    pub cpus: usize,
    pub compute_threads: usize,
    pub seed: u64,
    pub smoke: bool,
    pub workloads: Vec<WorkloadRecord>,
}

impl WorkloadRecord {
    /// Adds an end-to-end metric; the name must be in the catalog.
    pub fn push_e2e(&mut self, name: &str, summary: Summary) {
        let def = catalog::e2e(name).unwrap_or_else(|| panic!("{name} is not in the catalog"));
        self.e2e.push(E2eValue {
            name: def.name.to_string(),
            unit: def.unit.to_string(),
            better: def.better,
            bound: def.bound,
            summary,
        });
    }

    /// The last line the driver reads: the run's verdict and the metrics
    /// of the mode it ran in, by name.
    pub fn contract_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.ops_failed == 0,
            self.ops_attempted.max(1),
            self.ops_failed
        );
        let metrics: Vec<(&str, f64, &str)> = if self.traced {
            self.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.value, m.unit.as_str()))
                .collect()
        } else {
            self.e2e
                .iter()
                .map(|m| (m.name.as_str(), m.summary.median, m.unit.as_str()))
                .collect()
        };
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number as JSON. The shortest decimal that reads back as the
/// same `f64`, so a record survives the round trip through `--compare`.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v}")
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Record {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"{}\",", escape(&self.bench));
        let _ = writeln!(out, "  \"git_rev\": \"{}\",", escape(&self.git_rev));
        let _ = writeln!(out, "  \"cpus\": {},", self.cpus);
        let _ = writeln!(out, "  \"compute_threads\": {},", self.compute_threads);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(out, "  \"workloads\": [");
        for (wi, w) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", escape(&w.name));
            let _ = writeln!(out, "      \"traced\": {},", w.traced);
            let _ = writeln!(out, "      \"ops_attempted\": {},", w.ops_attempted);
            let _ = writeln!(out, "      \"ops_failed\": {},", w.ops_failed);
            let failures: Vec<String> = w
                .failures
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect();
            let _ = writeln!(out, "      \"failures\": [{}],", failures.join(", "));
            let _ = writeln!(out, "      \"end_to_end\": [");
            for (i, m) in w.e2e.iter().enumerate() {
                let s = &m.summary;
                let _ = writeln!(
                    out,
                    "        {{\"name\": \"{}\", \"median\": {}, \"min\": {}, \"max\": {}, \
                     \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\", \"better\": \"{}\", \
                     \"bound\": {}}}{}",
                    escape(&m.name),
                    num(s.median),
                    num(s.min),
                    num(s.max),
                    num(s.q1),
                    num(s.q3),
                    s.n,
                    escape(&m.unit),
                    m.better.as_str(),
                    num(m.bound),
                    if i + 1 == w.e2e.len() { "" } else { "," }
                );
            }
            let _ = writeln!(out, "      ],");
            let _ = writeln!(out, "      \"per_layer\": [");
            for (i, m) in w.per_layer.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}{}",
                    escape(&m.name),
                    num(m.value),
                    escape(&m.unit),
                    if i + 1 == w.per_layer.len() { "" } else { "," }
                );
            }
            let _ = writeln!(out, "      ]");
            let comma = if wi + 1 == self.workloads.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Reads back what [`Record::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let str_of = |v: &Value, k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string \"{k}\""))
        };
        let num_of = |v: &Value, k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number \"{k}\""))
        };
        let bool_of = |v: &Value, k: &str| -> Result<bool, String> {
            match v.get(k) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(format!("missing flag \"{k}\"")),
            }
        };
        let arr_of = |v: &Value, k: &str| -> Result<Vec<Value>, String> {
            v.get(k)
                .and_then(Value::as_array)
                .map(<[Value]>::to_vec)
                .ok_or_else(|| format!("missing list \"{k}\""))
        };
        let mut workloads = Vec::new();
        for w in arr_of(&doc, "workloads")? {
            let mut e2e = Vec::new();
            for m in arr_of(&w, "end_to_end")? {
                let better = match str_of(&m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("better is \"{other}\"")),
                };
                e2e.push(E2eValue {
                    name: str_of(&m, "name")?,
                    unit: str_of(&m, "unit")?,
                    better,
                    bound: num_of(&m, "bound")?,
                    summary: Summary {
                        median: num_of(&m, "median")?,
                        min: num_of(&m, "min")?,
                        max: num_of(&m, "max")?,
                        q1: num_of(&m, "q1")?,
                        q3: num_of(&m, "q3")?,
                        n: num_of(&m, "n")? as usize,
                    },
                });
            }
            let mut per_layer = Vec::new();
            for m in arr_of(&w, "per_layer")? {
                per_layer.push(LayerValue {
                    name: str_of(&m, "name")?,
                    unit: str_of(&m, "unit")?,
                    value: num_of(&m, "value")?,
                });
            }
            let mut failures = Vec::new();
            for f in arr_of(&w, "failures")? {
                failures.push(f.as_str().ok_or("failure is not a string")?.to_string());
            }
            workloads.push(WorkloadRecord {
                name: str_of(&w, "name")?,
                traced: bool_of(&w, "traced")?,
                e2e,
                per_layer,
                ops_attempted: num_of(&w, "ops_attempted")? as u64,
                ops_failed: num_of(&w, "ops_failed")? as u64,
                failures,
            });
        }
        Ok(Record {
            bench: str_of(&doc, "bench")?,
            git_rev: str_of(&doc, "git_rev")?,
            cpus: num_of(&doc, "cpus")? as usize,
            compute_threads: num_of(&doc, "compute_threads")? as usize,
            seed: num_of(&doc, "seed")? as u64,
            smoke: bool_of(&doc, "smoke")?,
            workloads,
        })
    }
}

/// What `--compare` says about one (metric x workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// Either side's median is itself uncertain by more than the bound,
    /// so the two cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `--compare`'s output.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compares every (end-to-end metric x workload) present in both records,
/// `a` being the baseline, with the bounds recorded in `a`. Where both
/// records are traced runs of the same seed, the computed per-layer
/// metrics of [`catalog::EXACT_PER_SEED`] are compared too, with a bound
/// of 0: they repeat exactly unless the program changed.
pub fn compare(a: &Record, b: &Record) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for ma in &wa.e2e {
            let Some(mb) = wb.e2e.iter().find(|m| m.name == ma.name) else {
                continue;
            };
            let (ra, rb) = (ma.summary.median, mb.summary.median);
            let worse_by = match ma.better {
                Better::Lower => (rb - ra) / ra,
                Better::Higher => (ra - rb) / ra,
            };
            let spread = ma.summary.median_spread().max(mb.summary.median_spread());
            let verdict = if spread > ma.bound {
                Verdict::Unresolved
            } else if worse_by > ma.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(CompareRow {
                workload: wa.name.clone(),
                metric: ma.name.clone(),
                unit: ma.unit.clone(),
                a: ra,
                b: rb,
                worse_by,
                bound: ma.bound,
                verdict,
            });
        }
        if a.seed != b.seed {
            continue;
        }
        for name in catalog::EXACT_PER_SEED {
            let value = |w: &WorkloadRecord| w.per_layer.iter().find(|m| m.name == *name).cloned();
            let (Some(ma), Some(mb)) = (value(wa), value(wb)) else {
                continue;
            };
            // A layer the workload bypasses reads 0 on both sides.
            if ma.value == 0.0 && mb.value == 0.0 {
                continue;
            }
            let better = catalog::layer(name).map_or(Better::Lower, |d| d.better);
            let worse_by = if ma.value == mb.value {
                0.0
            } else {
                match better {
                    Better::Lower => (mb.value - ma.value) / ma.value,
                    Better::Higher => (ma.value - mb.value) / ma.value,
                }
            };
            rows.push(CompareRow {
                workload: wa.name.clone(),
                metric: ma.name,
                unit: ma.unit,
                a: ma.value,
                b: mb.value,
                worse_by,
                bound: 0.0,
                verdict: if worse_by > 0.0 {
                    Verdict::Regressed
                } else {
                    Verdict::Ok
                },
            });
        }
    }
    rows
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first thing that is not JSON.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

/// Deepest nesting the reader follows; records nest four levels.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("unknown literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("not a number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    fn sample_record(op_ms: &[f64]) -> Record {
        let mut w = WorkloadRecord {
            name: "fullbatch-halo".to_string(),
            ops_attempted: 12,
            ..WorkloadRecord::default()
        };
        w.push_e2e("setup_s", summarize(&[1.37, 1.35, 1.41]));
        w.push_e2e("op_ms", summarize(op_ms));
        w.per_layer.push(LayerValue {
            name: "plan.spst_ms".to_string(),
            unit: "ms".to_string(),
            value: 498.25,
        });
        w.failures.push("a \"quoted\"\nnote".to_string());
        Record {
            bench: "e2e".to_string(),
            git_rev: "a26ddb9".to_string(),
            cpus: 2,
            compute_threads: 2,
            seed: 42,
            smoke: false,
            workloads: vec![w],
        }
    }

    const STEADY: [f64; 8] = [250.0, 251.5, 249.0, 252.0, 250.5, 248.0, 251.0, 250.2];

    #[test]
    fn record_survives_the_round_trip() {
        let rec = sample_record(&STEADY);
        let back = Record::from_json(&rec.to_json()).expect("own output parses");
        assert_eq!(back, rec);
    }

    #[test]
    fn compare_of_a_record_with_itself_is_all_ok() {
        let rec = sample_record(&STEADY);
        let rows = compare(&rec, &Record::from_json(&rec.to_json()).expect("parses"));
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));
    }

    #[test]
    fn compare_tells_regressed_from_unresolved() {
        let base = sample_record(&STEADY);
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.3).collect();
        let rows = compare(&base, &sample_record(&slower));
        let op = rows
            .iter()
            .find(|r| r.metric == "op_ms")
            .expect("op_ms row");
        assert_eq!(op.verdict, Verdict::Regressed);
        assert!((op.worse_by - 0.3).abs() < 1e-9);
        // Faster is never a regression.
        let rows = compare(&sample_record(&slower), &base);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        // Samples scattered over a factor of four cannot resolve 25%.
        let wild = [100.0, 400.0, 120.0, 380.0];
        let rows = compare(&base, &sample_record(&wild));
        let op = rows
            .iter()
            .find(|r| r.metric == "op_ms")
            .expect("op_ms row");
        assert_eq!(op.verdict, Verdict::Unresolved);
    }

    #[test]
    fn computed_metrics_are_held_to_zero_at_the_same_seed() {
        let base = sample_record(&STEADY);
        let mut costlier = base.clone();
        let cost = LayerValue {
            name: "plan.cost_ms".to_string(),
            unit: "ms".to_string(),
            value: 3.5,
        };
        let mut with_cost = base.clone();
        with_cost.workloads[0].per_layer.push(cost.clone());
        costlier.workloads[0].per_layer.push(LayerValue {
            value: 3.5001,
            ..cost
        });
        let row = |a: &Record, b: &Record| {
            compare(a, b)
                .into_iter()
                .find(|r| r.metric == "plan.cost_ms")
        };
        assert_eq!(
            row(&with_cost, &with_cost).map(|r| r.verdict),
            Some(Verdict::Ok)
        );
        assert_eq!(
            row(&with_cost, &costlier).map(|r| r.verdict),
            Some(Verdict::Regressed)
        );
        assert_eq!(
            row(&costlier, &with_cost).map(|r| r.verdict),
            Some(Verdict::Ok)
        );
        // Timed per-layer metrics are never compared, nor anything
        // across seeds.
        assert!(compare(&with_cost, &with_cost)
            .iter()
            .all(|r| r.metric != "plan.spst_ms"));
        costlier.seed += 1;
        assert!(row(&with_cost, &costlier).is_none());
    }

    #[test]
    fn contract_line_carries_the_mode_s_metrics() {
        let mut w = sample_record(&STEADY).workloads.remove(0);
        let line = parse(&w.contract_line()).expect("one JSON object");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(12.0));
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(1.37)
        );
        assert!(metrics.get("plan.spst_ms").is_none());
        w.traced = true;
        w.ops_failed = 1;
        let line = parse(&w.contract_line()).expect("one JSON object");
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let metrics = line.get("metrics").expect("metrics");
        assert!(metrics.get("setup_s").is_none());
        assert_eq!(
            metrics
                .get("plan.spst_ms")
                .and_then(|m| m.get("unit"))
                .and_then(Value::as_str),
            Some("ms")
        );
    }

    #[test]
    fn parser_rejects_what_is_not_json() {
        assert!(parse("{\"a\": [1, 2.5e-3, true, null, \"x\\u0041\"]}").is_ok());
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "{\"a\": 1} x",
            "\"open",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(parse(&"[".repeat(100)).is_err());
    }
}
