//! The row-width dispatch shared by the hot kernels.
//!
//! A kernel whose output rows are `W` wide can keep one output row (or a
//! chunk of them) in a stack array `[f32; W]` for its whole reduction and
//! store it once, where a width known only at run time loads and stores
//! the row in memory at every step. `by_width!` picks the fixed-width
//! form for the widths the training workloads use and the kernel's
//! generic loop — its `*_reference` form — for every other width.
//!
//! The two forms run the same additions and multiplications on each
//! output element, in the same order, from the same starting value, so
//! they agree bit for bit (pinned in `tests/parallel_kernels.rs`). Lanes
//! are added and multiplied as separate operations — no fused
//! multiply-add, no target-specific code — so the bits are also the same
//! on every host.

/// `by_width!(width, fixed(args..), generic)`: evaluates `fixed::<W>(args..)`
/// when `width` is one of 8, 16, 32, 64 or 128, else `generic`.
macro_rules! by_width {
    ($width:expr, $fixed:ident($($arg:expr),* $(,)?), $generic:expr) => {
        match $width {
            8 => $fixed::<8>($($arg),*),
            16 => $fixed::<16>($($arg),*),
            32 => $fixed::<32>($($arg),*),
            64 => $fixed::<64>($($arg),*),
            128 => $fixed::<128>($($arg),*),
            _ => $generic,
        }
    };
}
