//! The weight dtype marker kept for one call site.

/// Element type of a served network's weights. `F32` is the only one.
///
/// This single-variant enum exists only for the perf ledger's serving
/// phase, which calls `hs_serve::ServerConfig::with_dtype(DType::F32)`. It
/// goes, with `with_dtype`, when ROADMAP item 2 drops that call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DType {
    /// 32-bit IEEE float — the compute and storage type everywhere.
    F32,
}
