//! Which vector instruction set the running CPU offers — the one runtime
//! decision every ISA-dispatched kernel in this crate
//! ([`gemm`](mod@crate::gemm)'s micro-kernel, the 3×3 depthwise kernel) is
//! taken behind. Detected once per process; the build stays a plain portable
//! target, and there is no runtime switch — only this crate's unit tests can
//! pin a tier (`force_tier`).

/// The kernel tier the running CPU supports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Isa {
    /// AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 with FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// No vector extension assumed.
    Portable,
}

impl Isa {
    /// Whether this CPU can run the tier (every CPU runs the portable one;
    /// an AVX-512 host also runs the AVX2 tier).
    pub(crate) fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            Isa::Portable => true,
        }
    }
}

/// Every tier, best first.
const TIERS: &[Isa] = &[
    #[cfg(target_arch = "x86_64")]
    Isa::Avx512,
    #[cfg(target_arch = "x86_64")]
    Isa::Avx2,
    Isa::Portable,
];

/// The tiers this CPU can run, best first (the portable one is always last).
pub(crate) fn supported_tiers() -> impl Iterator<Item = Isa> {
    TIERS.iter().copied().filter(|tier| tier.supported())
}

#[cfg(test)]
thread_local! {
    /// Test builds only: the tier [`isa`] is pinned to on this thread.
    static FORCED_TIER: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
}

/// Test builds only: pins every ISA-dispatched kernel to `tier` on the
/// calling thread (`None` restores detection). A kernel reads [`isa`] once
/// per call, on the calling thread, so work it fans out follows the pin.
///
/// # Panics
///
/// Panics if this CPU cannot run `tier`.
#[cfg(test)]
pub(crate) fn force_tier(tier: Option<Isa>) {
    assert!(tier.is_none_or(Isa::supported), "{tier:?} not supported");
    FORCED_TIER.with(|t| t.set(tier));
}

/// The tier the kernels run on: the best one this CPU supports, detected on
/// first use (test builds can pin a supported one with `force_tier`).
pub(crate) fn isa() -> Isa {
    use std::sync::OnceLock;
    #[cfg(test)]
    if let Some(forced) = FORCED_TIER.with(std::cell::Cell::get) {
        return forced;
    }
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| supported_tiers().next().unwrap_or(Isa::Portable))
}
