//! Per-exploration resource budgets.
//!
//! A [`BudgetMeter`] carries the resource ceilings of one exploration — a
//! configuration budget and a zone-memory budget — plus the running usage
//! counters the consumers charge into it. The driver checks the meter at the
//! same point of its loop where it checks its size limits, so a breached
//! budget aborts at the same configuration count on every run, and records
//! the breach on the run's [`CancelToken`](crate::CancelToken). Like the
//! token, the default meter is *inert*: it has no ceilings, costs nothing
//! to check, and every charge into it is a no-op.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The resource whose budget was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetResource {
    /// The configuration budget (`max_configs`): expanded configurations.
    Configs,
    /// The zone-memory budget (`max_zone_bytes`): bytes of distinct interned
    /// zones, as charged by the DBM interner.
    ZoneBytes,
}

impl BudgetResource {
    /// The wire name: `configs` or `zone-bytes`.
    pub fn name(self) -> &'static str {
        match self {
            BudgetResource::Configs => "configs",
            BudgetResource::ZoneBytes => "zone-bytes",
        }
    }
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The record of a budget breach: which resource went over, how much was
/// used when the driver noticed, and what the ceiling was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetBreach {
    /// The exhausted resource.
    pub resource: BudgetResource,
    /// Usage at the deterministic check that noticed the breach.
    pub used: usize,
    /// The configured ceiling.
    pub limit: usize,
}

struct MeterState {
    max_configs: Option<usize>,
    max_zone_bytes: Option<usize>,
    zone_bytes: AtomicUsize,
}

/// Resource ceilings plus running usage for one exploration.
///
/// Meters are cheap to clone (all clones share one state). Consumers charge
/// usage in from wherever they account it — the DBM interner charges zone
/// bytes as the driver stores each zone — and the driver calls
/// [`check`](Self::check) once per expanded configuration; on a breach it
/// records [`StopReason::Budget`](crate::StopReason::Budget) on the run's
/// cancel token and stops.
///
/// # Examples
///
/// ```
/// use explore::{BudgetMeter, BudgetResource};
///
/// let meter = BudgetMeter::new(Some(10), None);
/// assert!(meter.check(10).is_none());
/// let breach = meter.check(11).expect("over budget");
/// assert_eq!(breach.resource, BudgetResource::Configs);
/// assert_eq!(breach.used, 11);
///
/// // The inert meter admits everything and records nothing.
/// let inert = BudgetMeter::default();
/// inert.charge_zone_bytes(usize::MAX);
/// assert!(inert.check(usize::MAX).is_none());
/// assert!(inert.is_inert());
/// ```
#[derive(Clone, Default)]
pub struct BudgetMeter(Option<Arc<MeterState>>);

impl BudgetMeter {
    /// Creates a meter with the given ceilings. When both are `None` the
    /// meter is inert — identical to [`BudgetMeter::default`].
    pub fn new(max_configs: Option<usize>, max_zone_bytes: Option<usize>) -> Self {
        if max_configs.is_none() && max_zone_bytes.is_none() {
            return BudgetMeter(None);
        }
        BudgetMeter(Some(Arc::new(MeterState {
            max_configs,
            max_zone_bytes,
            zone_bytes: AtomicUsize::new(0),
        })))
    }

    /// Returns `true` for the inert meter, which has no ceilings and never
    /// reports a breach.
    pub fn is_inert(&self) -> bool {
        self.0.is_none()
    }

    /// Adds `bytes` to the zone-memory usage. No-op on the inert meter.
    ///
    /// The DBM interner calls this once per *distinct* interned zone, in the
    /// driver's breadth-first order, so the running total is the same on
    /// every run.
    pub fn charge_zone_bytes(&self, bytes: usize) {
        if let Some(state) = &self.0 {
            state.zone_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Zone-memory usage charged so far (always 0 on the inert meter).
    pub fn zone_bytes(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |state| state.zone_bytes.load(Ordering::Relaxed))
    }

    /// Checks `expanded` configurations and the charged zone bytes against
    /// the ceilings: the breach, configurations first, or `None` while
    /// within budget and always on the inert meter.
    pub fn check(&self, expanded: usize) -> Option<BudgetBreach> {
        let state = self.0.as_ref()?;
        let over = |resource, used, limit: Option<usize>| {
            limit
                .filter(|&limit| used > limit)
                .map(|limit| BudgetBreach {
                    resource,
                    used,
                    limit,
                })
        };
        over(BudgetResource::Configs, expanded, state.max_configs).or_else(|| {
            over(
                BudgetResource::ZoneBytes,
                state.zone_bytes.load(Ordering::Relaxed),
                state.max_zone_bytes,
            )
        })
    }
}

impl fmt::Debug for BudgetMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "BudgetMeter(inert)"),
            Some(state) => write!(
                f,
                "BudgetMeter(max_configs: {:?}, max_zone_bytes: {:?}, zone_bytes: {})",
                state.max_configs,
                state.max_zone_bytes,
                self.zone_bytes()
            ),
        }
    }
}

/// Meters compare by identity, exactly like `CancelToken`: two meters are
/// equal when charging one observably charges the other (same shared state,
/// or both inert).
impl PartialEq for BudgetMeter {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for BudgetMeter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_none_is_inert() {
        let meter = BudgetMeter::new(None, None);
        assert!(meter.is_inert());
        assert_eq!(meter, BudgetMeter::default());
        assert!(meter.check(usize::MAX).is_none());
    }

    #[test]
    fn config_budget_breaches_strictly_above_limit() {
        let meter = BudgetMeter::new(Some(5), None);
        assert!(!meter.is_inert());
        assert!(meter.check(5).is_none());
        let breach = meter.check(6).expect("breach");
        assert_eq!(
            breach,
            BudgetBreach {
                resource: BudgetResource::Configs,
                used: 6,
                limit: 5
            }
        );
    }

    #[test]
    fn zone_byte_budget_breaches_after_charges() {
        let meter = BudgetMeter::new(None, Some(100));
        meter.charge_zone_bytes(60);
        assert!(meter.check(1).is_none());
        meter.charge_zone_bytes(60);
        assert_eq!(meter.zone_bytes(), 120);
        let breach = meter.check(2).expect("breach");
        assert_eq!(breach.resource, BudgetResource::ZoneBytes);
        assert_eq!(breach.used, 120);
        assert_eq!(breach.limit, 100);
    }

    #[test]
    fn clones_share_one_state() {
        let meter = BudgetMeter::new(None, Some(2));
        let clone = meter.clone();
        assert_eq!(meter, clone);
        clone.charge_zone_bytes(3);
        assert_eq!(meter.zone_bytes(), 3);
        assert!(meter.check(0).is_some());
        assert_ne!(
            BudgetMeter::new(Some(2), None),
            BudgetMeter::new(Some(2), None)
        );
    }

    #[test]
    fn resource_names() {
        assert_eq!(BudgetResource::Configs.name(), "configs");
        assert_eq!(BudgetResource::ZoneBytes.to_string(), "zone-bytes");
    }
}
