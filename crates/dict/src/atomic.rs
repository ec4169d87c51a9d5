//! Model-check facade for the dictionary crate: the `hpa_check`
//! race-detector hooks under
//! `cfg(any(hpa_check, feature = "model-check"))`, inert stubs otherwise.

/// Race-detector hook facade, mirroring `hpa_exec::sync::tracked`: real
/// vector-clock trackers under model checking, inert stubs otherwise.
/// Dictionary structures embed a [`tracked::Track`] beside their shared
/// state and call `on_read`/`on_write` inside the owning critical
/// section; release builds compile the hooks away.
pub mod tracked {
    #[cfg(any(hpa_check, feature = "model-check"))]
    pub use hpa_check::race::Track;

    #[cfg(not(any(hpa_check, feature = "model-check")))]
    pub use inert::Track;

    #[cfg(not(any(hpa_check, feature = "model-check")))]
    mod inert {
        /// Release-build stand-in for `hpa_check::race::Track`: all hooks
        /// are empty inline functions the optimizer removes.
        #[derive(Clone, Default)]
        pub struct Track;

        impl Track {
            /// Create a tracker for the named state (the name only
            /// matters under model checking; kept for API parity).
            #[must_use]
            pub const fn new(_name: &'static str) -> Self {
                Track
            }

            /// Record a logical read of the tracked state (no-op).
            #[inline(always)]
            pub fn on_read(&self) {}

            /// Record a logical write of the tracked state (no-op).
            #[inline(always)]
            pub fn on_write(&self) {}
        }

        impl std::fmt::Debug for Track {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("Track")
            }
        }
    }
}
