//! Per-slot records and aggregated simulation metrics.

use serde::{Deserialize, Serialize};

/// Everything that happened in one simulated slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Target committed servers requested by the policy.
    pub target: u32,
    /// Committed (awake or waking) servers after applying the target.
    pub committed: u32,
    /// Servers actually serving this slot.
    pub serving: u32,
    /// Offered load.
    pub load: f64,
    /// Load served.
    pub served: f64,
    /// Load dropped (capacity shortfall).
    pub dropped: f64,
    /// Mean utilisation of serving servers.
    pub utilisation: f64,
    /// Total power drawn this slot (all states).
    pub power: f64,
    /// One-off wake energy spent this slot.
    pub wake_energy: f64,
    /// Servers that began waking this slot.
    pub woken: u32,
    /// Servers put to sleep this slot.
    pub slept: u32,
}

/// Aggregated metrics over a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    records: Vec<SlotRecord>,
}

impl Metrics {
    /// Append one slot.
    pub fn push(&mut self, r: SlotRecord) {
        self.records.push(r);
    }

    /// Number of simulated slots.
    pub fn slots(&self) -> usize {
        self.records.len()
    }

    /// Raw per-slot records.
    pub fn records(&self) -> &[SlotRecord] {
        &self.records
    }

    /// Total energy: power plus wake energy.
    pub fn total_energy(&self) -> f64 {
        self.records.iter().map(|r| r.power + r.wake_energy).sum()
    }

    /// Total dropped load.
    pub fn total_dropped(&self) -> f64 {
        self.records.iter().map(|r| r.dropped).sum()
    }

    /// Total offered load.
    pub fn total_load(&self) -> f64 {
        self.records.iter().map(|r| r.load).sum()
    }

    /// Fraction of load dropped (0 when no load was offered).
    pub fn drop_rate(&self) -> f64 {
        let l = self.total_load();
        if l == 0.0 {
            0.0
        } else {
            self.total_dropped() / l
        }
    }

    /// Total wake events.
    pub fn total_wakes(&self) -> u32 {
        self.records.iter().map(|r| r.woken).sum()
    }

    /// Mean utilisation over slots with at least one serving server.
    pub fn mean_utilisation(&self) -> f64 {
        let xs: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.serving > 0)
            .map(|r| r.utilisation)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Mean committed servers.
    pub fn mean_committed(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.committed as f64).sum::<f64>() / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(power: f64, load: f64, dropped: f64, woken: u32) -> SlotRecord {
        SlotRecord {
            target: 1,
            committed: 1,
            serving: 1,
            load,
            served: load - dropped,
            dropped,
            utilisation: 0.5,
            power,
            wake_energy: woken as f64 * 2.0,
            woken,
            slept: 0,
        }
    }

    #[test]
    fn aggregation() {
        let mut m = Metrics::default();
        m.push(rec(1.5, 2.0, 0.5, 1));
        m.push(rec(2.0, 1.0, 0.0, 0));
        assert_eq!(m.slots(), 2);
        assert!((m.total_energy() - (1.5 + 2.0 + 2.0)).abs() < 1e-12);
        assert!((m.total_dropped() - 0.5).abs() < 1e-12);
        assert!((m.drop_rate() - 0.5 / 3.0).abs() < 1e-12);
        assert_eq!(m.total_wakes(), 1);
        assert!((m.mean_utilisation() - 0.5).abs() < 1e-12);
        assert!((m.mean_committed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics() {
        let m = Metrics::default();
        assert_eq!(m.slots(), 0);
        assert_eq!(m.drop_rate(), 0.0);
        assert_eq!(m.mean_utilisation(), 0.0);
        assert_eq!(m.mean_committed(), 0.0);
    }
}
