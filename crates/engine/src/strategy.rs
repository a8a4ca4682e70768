//! Run-wide maintenance strategy configuration.

use netrec_prov::ProvMode;
use netrec_types::Duration;

/// How MinShip releases buffered derivations (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShipPolicy {
    /// No buffering: every derivation ships immediately (a conventional Ship
    /// operator; the costliest configuration).
    Immediate,
    /// Buffer and flush periodically or when `batch` updates accumulate —
    /// the paper's eager mode (default period: 1 s, as in §7.2).
    Eager {
        /// Flush period.
        period: Duration,
        /// Flush when this many distinct buffered tuples accumulate.
        batch: usize,
    },
    /// Buffer indefinitely; release an alternative derivation only when the
    /// previously-shipped derivation is deleted — the paper's lazy mode.
    Lazy,
}

impl ShipPolicy {
    /// The paper's eager setting: flush once a second (time-driven only —
    /// the batch threshold is a backstop, not the flushing mechanism).
    pub fn eager_1s() -> ShipPolicy {
        ShipPolicy::Eager {
            period: Duration::from_secs(1),
            batch: 1 << 20,
        }
    }
}

/// Full strategy: the paper's two dials — provenance scheme and shipping
/// policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Strategy {
    /// Annotation scheme.
    pub mode: ProvMode,
    /// MinShip policy.
    pub ship: ShipPolicy,
}

impl Strategy {
    /// Absorption provenance with lazy shipping — the paper's best overall
    /// configuration ("Absorption Lazy").
    pub fn absorption_lazy() -> Strategy {
        Strategy {
            mode: ProvMode::Absorption,
            ship: ShipPolicy::Lazy,
        }
    }

    /// Absorption provenance with 1 s eager flushes ("Absorption Eager").
    pub fn absorption_eager() -> Strategy {
        Strategy {
            mode: ProvMode::Absorption,
            ship: ShipPolicy::eager_1s(),
        }
    }

    /// Relative provenance, lazy shipping ("Relative Lazy").
    pub fn relative_lazy() -> Strategy {
        Strategy {
            mode: ProvMode::Relative,
            ship: ShipPolicy::Lazy,
        }
    }

    /// Relative provenance, eager shipping ("Relative Eager").
    pub fn relative_eager() -> Strategy {
        Strategy {
            mode: ProvMode::Relative,
            ship: ShipPolicy::eager_1s(),
        }
    }

    /// Plain set semantics, immediate shipping (the substrate for DRed).
    pub fn set() -> Strategy {
        Strategy {
            mode: ProvMode::Set,
            ship: ShipPolicy::Immediate,
        }
    }

    /// Human-readable label used by the bench harnesses.
    pub fn label(&self) -> String {
        let mode = match self.mode {
            ProvMode::Set => "Set",
            ProvMode::Absorption => "Absorption",
            ProvMode::Relative => "Relative",
        };
        let ship = match self.ship {
            ShipPolicy::Immediate => "Immediate",
            ShipPolicy::Eager { .. } => "Eager",
            ShipPolicy::Lazy => "Lazy",
        };
        format!("{mode} {ship}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(Strategy::absorption_lazy().mode, ProvMode::Absorption);
        assert_eq!(Strategy::absorption_lazy().ship, ShipPolicy::Lazy);
        assert!(matches!(
            Strategy::absorption_eager().ship,
            ShipPolicy::Eager { .. }
        ));
        assert_eq!(Strategy::relative_lazy().mode, ProvMode::Relative);
        assert_eq!(Strategy::set().mode, ProvMode::Set);
    }

    #[test]
    fn labels() {
        assert_eq!(Strategy::absorption_lazy().label(), "Absorption Lazy");
        assert_eq!(Strategy::relative_eager().label(), "Relative Eager");
        assert_eq!(Strategy::set().label(), "Set Immediate");
    }
}
