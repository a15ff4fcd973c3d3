//! Seeded workload generation. Everything the program under test sees —
//! tenant ids, policies' rounding seeds, loads and arrival times — is
//! drawn here from `--seed`; the program only ever receives the rendered
//! bytes.

use rsdc_engine::binwire::{self, BodyWriter, TAG_STEP_LOAD};
use rsdc_engine::{wire, PolicySpec, TenantConfig};
use std::collections::HashSet;

/// SplitMix64: tiny, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap in nanoseconds at `rate` per second.
    pub fn gap_ns(&mut self, rate: f64) -> u64 {
        (-(1.0 - self.unit()).ln() / rate * 1e9) as u64
    }
}

/// Cycles of (low-rate slice, high-rate slice, saturation rounds) in a
/// run of `seconds`: one cycle takes about two seconds on a 2-core host.
/// Running the phases as interleaved cycles, not one after another, lets
/// every metric sample the whole run — CPU speed on a shared host drifts
/// over seconds — and lets each report a median over cycles.
pub fn cycles(seconds: f64) -> usize {
    ((seconds / 2.0).round() as usize).max(2)
}

/// Wire framing of a request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    Jsonl,
    Binary,
}

/// What a request record does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Admit,
    Step,
    /// A `report` for one tenant: flushes the pending step batch.
    Control,
}

/// One request record of a stream.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub kind: Kind,
    pub tenant: u32,
    pub load: f64,
    /// Due time, nanoseconds after its phase starts (0 outside the
    /// fixed-rate phases).
    pub due_ns: u64,
}

/// A contiguous run of records driven one way.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub start: usize,
    pub end: usize,
}

/// One tenant of a stream.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub config: TenantConfig,
    /// Mean offered load.
    pub base: f64,
}

/// A tenant mix: `share` of the fleet runs HalfStepRounded, the rest LCP.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    pub tenants: usize,
    pub m: u32,
    pub beta: f64,
    pub halfstep_share: f64,
    pub track_opt: bool,
}

/// Draw a fleet with seeded, distinct ids.
pub fn fleet(rng: &mut Rng, prefix: &str, f: Fleet) -> Vec<Tenant> {
    let mut seen = HashSet::new();
    let halfstep = (f.tenants as f64 * f.halfstep_share).round() as usize;
    (0..f.tenants)
        .map(|i| {
            let id = loop {
                let id = format!("{prefix}{:012x}", rng.next_u64() >> 16);
                if seen.insert(id.clone()) {
                    break id;
                }
            };
            let policy = if i < halfstep {
                PolicySpec::HalfStepRounded {
                    seed: rng.next_u64() >> 1,
                }
            } else {
                PolicySpec::Lcp
            };
            let mut config = TenantConfig::new(id, f.m, f.beta, policy);
            config.track_opt = f.track_opt;
            Tenant {
                config,
                base: f.m as f64 * (0.15 + 0.6 * rng.unit()),
            }
        })
        .collect()
}

/// One tenant's offered load for its next slot: its mean with ±30% noise.
pub fn load(rng: &mut Rng, t: &Tenant) -> f64 {
    let l = t.base * (0.7 + 0.6 * rng.unit());
    (l * 1000.0).round() / 1000.0
}

/// A request stream for one connection (or one in-process session).
pub struct Stream {
    pub framing: Framing,
    pub tenants: Vec<Tenant>,
    pub recs: Vec<Rec>,
    pub phases: Vec<Phase>,
}

impl Stream {
    pub fn new(framing: Framing, tenants: Vec<Tenant>) -> Stream {
        let recs = (0..tenants.len())
            .map(|i| Rec {
                kind: Kind::Admit,
                tenant: i as u32,
                load: 0.0,
                due_ns: 0,
            })
            .collect();
        let n = tenants.len();
        Stream {
            framing,
            tenants,
            recs,
            phases: vec![Phase {
                name: "admit",
                start: 0,
                end: n,
            }],
        }
    }

    fn push_step(&mut self, rng: &mut Rng, tenant: usize, due_ns: u64) {
        let load = load(rng, &self.tenants[tenant]);
        self.recs.push(Rec {
            kind: Kind::Step,
            tenant: tenant as u32,
            load,
            due_ns,
        });
    }

    fn push_control(&mut self, rng: &mut Rng, due_ns: u64) {
        let tenant = rng.below(self.tenants.len()) as u32;
        self.recs.push(Rec {
            kind: Kind::Control,
            tenant,
            load: 0.0,
            due_ns,
        });
    }

    /// Steps to random tenants, `control_every`-th record a control
    /// record, ending with a control record that flushes the tail. With a
    /// `rate` (this stream's steps/s), arrivals are Poisson over
    /// `seconds`; otherwise `steps` records are appended undated.
    pub fn random_phase(
        &mut self,
        rng: &mut Rng,
        name: &'static str,
        rate: Option<f64>,
        seconds: f64,
        steps: usize,
        control_every: Option<usize>,
    ) {
        let start = self.recs.len();
        let mut t = 0u64;
        let mut since_control = 0;
        let mut n = 0;
        loop {
            if let Some(rate) = rate {
                t += rng.gap_ns(rate);
                if t as f64 >= seconds * 1e9 {
                    break;
                }
            } else if n == steps {
                break;
            }
            let tenant = rng.below(self.tenants.len());
            self.push_step(rng, tenant, t);
            n += 1;
            since_control += 1;
            if control_every.is_some_and(|k| since_control + 1 == k) {
                self.push_control(rng, t);
                since_control = 0;
            }
        }
        self.push_control(rng, t);
        self.phases.push(Phase {
            name,
            start,
            end: self.recs.len(),
        });
    }

    /// Slot-shaped traffic: each tick steps every tenant once, then one
    /// control record. With a `rate`, steps arrive Poisson and a tick's
    /// control record is due with its last step.
    pub fn tick_phase(
        &mut self,
        rng: &mut Rng,
        name: &'static str,
        rate: Option<f64>,
        ticks: usize,
    ) {
        let start = self.recs.len();
        let mut t = 0u64;
        for _ in 0..ticks {
            for tenant in 0..self.tenants.len() {
                if let Some(rate) = rate {
                    t += rng.gap_ns(rate);
                }
                self.push_step(rng, tenant, t);
            }
            self.push_control(rng, t);
        }
        self.phases.push(Phase {
            name,
            start,
            end: self.recs.len(),
        });
    }

    pub fn phase(&self, name: &str) -> &Phase {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no phase {name}"))
    }

    /// Step records in `range`.
    pub fn steps_in(&self, start: usize, end: usize) -> usize {
        self.recs[start..end]
            .iter()
            .filter(|r| r.kind == Kind::Step)
            .count()
    }

    /// The JSONL line of record `i` (no newline).
    pub fn line(&self, i: usize) -> String {
        let r = &self.recs[i];
        let t = &self.tenants[r.tenant as usize];
        match r.kind {
            Kind::Admit => wire::admit_line(&t.config),
            Kind::Step => wire::step_load_line(&t.config.id, r.load),
            Kind::Control => format!("{{\"op\":\"report\",\"id\":\"{}\"}}", t.config.id),
        }
    }

    /// Render the whole stream in its framing. `ends[i]` is the byte
    /// offset just past record `i`; the binary stream opens with the
    /// preamble.
    pub fn render(&self, framing: Framing) -> (Vec<u8>, Vec<usize>) {
        let mut out = Vec::new();
        let mut ends = Vec::with_capacity(self.recs.len());
        let mut payload = Vec::new();
        if framing == Framing::Binary {
            out.extend_from_slice(&binwire::PREAMBLE);
        }
        for (i, r) in self.recs.iter().enumerate() {
            match framing {
                Framing::Jsonl => {
                    out.extend_from_slice(self.line(i).as_bytes());
                    out.push(b'\n');
                }
                Framing::Binary if r.kind == Kind::Step => {
                    let id = &self.tenants[r.tenant as usize].config.id;
                    BodyWriter::start(&mut payload, TAG_STEP_LOAD)
                        .str16(id)
                        .f64(r.load);
                    binwire::put_frame(&mut out, &payload);
                }
                Framing::Binary => {
                    binwire::encode_request_line(&self.line(i), &mut payload, &mut out);
                }
            }
            ends.push(out.len());
        }
        (out, ends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let f = Fleet {
            tenants: 8,
            m: 16,
            beta: 6.0,
            halfstep_share: 0.5,
            track_opt: false,
        };
        let tenants = fleet(&mut rng, "t", f);
        let mut s = Stream::new(Framing::Jsonl, tenants);
        s.random_phase(&mut rng, "lo", Some(1000.0), 0.5, 0, Some(4));
        s.random_phase(&mut rng, "sat", None, 0.0, 100, None);
        s
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = stream(7).render(Framing::Binary).0;
        assert_eq!(a, stream(7).render(Framing::Binary).0);
        assert_ne!(a, stream(8).render(Framing::Binary).0);
    }

    #[test]
    fn phases_end_with_a_flush_and_keep_the_control_cadence() {
        let s = stream(3);
        let lo = s.phase("lo");
        assert_eq!(s.recs[lo.end - 1].kind, Kind::Control);
        // Every 4th record is a control record: at most 3 steps in a row.
        let mut run = 0;
        for r in &s.recs[lo.start..lo.end] {
            run = if r.kind == Kind::Step { run + 1 } else { 0 };
            assert!(run <= 3);
        }
        // ~1000/s over 0.5 s.
        let n = s.steps_in(lo.start, lo.end);
        assert!((400..600).contains(&n), "{n}");
        assert_eq!(s.steps_in(s.phase("sat").start, s.phase("sat").end), 100);
    }
}
