//! The whole-Θ transcription of Algorithm 1 that [`DataScheduler`] ran
//! before its indexes existed, kept as the test oracle: every decision here
//! is read off Θ, Ω and the pins by scanning them, never off `owned`,
//! `open` or `followers`. A scheduler built with
//! [`DataScheduler::new_oracle`] dispatches its three scanning entry points
//! here; everything else (schedule, pin, delete, chunk reports, announces)
//! is shared, since those only ever touched one datum.

use std::collections::{BTreeSet, HashSet};

use super::{AliveOracle, CacheValidation, DataScheduler, HostUid, SyncRole};
use crate::attr::DataAttributes;
use crate::data::{Data, DataId};

impl DataScheduler {
    pub(super) fn validate_cache_oracle(
        &mut self,
        host: HostUid,
        delta_k: &[DataId],
        now: u64,
        ext_alive: AliveOracle<'_>,
    ) -> CacheValidation {
        self.last_seen.insert(host, now);
        let delta: BTreeSet<DataId> = delta_k.iter().copied().collect();
        let expired = self.sweep_expired(now);

        let pinned_here: HashSet<DataId> = self
            .pinned
            .iter()
            .filter(|(_, hosts)| hosts.contains(&host))
            .map(|(d, _)| *d)
            .collect();
        for (d, owners) in self.owners.iter_mut() {
            if !delta.contains(d) && !pinned_here.contains(d) {
                owners.remove(&host);
            }
        }

        let mut v = CacheValidation {
            expired,
            ..CacheValidation::default()
        };
        for &d in &delta {
            let keep = match self.theta.get(&d) {
                None => false,
                Some(sd) => {
                    let lt = sd.attrs.lifetime;
                    self.lifetime_live(lt, now, ext_alive)
                }
            };
            if keep {
                let partial = self.partials.get(&d).is_some_and(|p| p.contains_key(&host));
                if partial {
                    v.repair.push(d);
                } else {
                    v.keep.push(d);
                    self.owners.entry(d).or_default().insert(host);
                }
            } else {
                v.delete.push(d);
            }
        }
        v
    }

    pub(super) fn assign_new_oracle(
        &mut self,
        host: HostUid,
        holds: &BTreeSet<DataId>,
        now: u64,
        role: SyncRole,
        budget: usize,
        ext_alive: AliveOracle<'_>,
    ) -> Vec<(Data, DataAttributes)> {
        let candidates: Vec<DataId> = self
            .theta
            .keys()
            .copied()
            .filter(|d| !holds.contains(d))
            .collect();
        let mut newly: BTreeSet<DataId> = BTreeSet::new();
        let mut downloads: Vec<(Data, DataAttributes)> = Vec::new();
        loop {
            let before = downloads.len();

            // Affinity resolution first — affinity is stronger than replica.
            for &dj in &candidates {
                if downloads.len() >= budget {
                    break;
                }
                if newly.contains(&dj) {
                    continue;
                }
                let sd = &self.theta[&dj];
                let Some(target) = sd.attrs.affinity else {
                    continue;
                };
                let lt = sd.attrs.lifetime;
                if !(holds.contains(&target) || newly.contains(&target)) {
                    continue;
                }
                if !self.lifetime_live(lt, now, ext_alive) {
                    continue;
                }
                let sd = &self.theta[&dj];
                downloads.push((sd.data.clone(), sd.attrs.clone()));
                newly.insert(dj);
                self.owners.entry(dj).or_default().insert(host);
            }

            // Replica scheduling (reservoir hosts only).
            for &dj in &candidates {
                if role == SyncRole::Client {
                    break;
                }
                if downloads.len() >= budget {
                    break;
                }
                if newly.contains(&dj) {
                    continue;
                }
                let sd = &self.theta[&dj];
                // Affinity-carrying data only place via their dependency.
                if sd.attrs.affinity.is_some() {
                    continue;
                }
                let lt = sd.attrs.lifetime;
                if !self.lifetime_live(lt, now, ext_alive) {
                    continue;
                }
                let sd = &self.theta[&dj];
                let owner_count = self.owners.get(&dj).map(|s| s.len()).unwrap_or(0);
                let wants_all = sd.attrs.replicate_everywhere();
                if wants_all || (owner_count as i64) < sd.attrs.replica {
                    downloads.push((sd.data.clone(), sd.attrs.clone()));
                    newly.insert(dj);
                    self.owners.entry(dj).or_default().insert(host);
                }
            }

            if downloads.len() == before || downloads.len() >= budget {
                break;
            }
        }
        downloads
    }

    pub(super) fn detect_failures_oracle(&mut self, now: u64) -> Vec<HostUid> {
        let dead: Vec<HostUid> = self
            .last_seen
            .iter()
            .filter(|(_, &seen)| now.saturating_sub(seen) > self.timeout)
            .map(|(&h, _)| h)
            .collect();
        for &h in &dead {
            self.last_seen.remove(&h);
            // A dead host's partial holdings are gone with it.
            self.partials.retain(|_, hosts| {
                hosts.remove(&h);
                !hosts.is_empty()
            });
            for (d, owners) in self.owners.iter_mut() {
                let ft = self
                    .theta
                    .get(d)
                    .map(|sd| sd.attrs.fault_tolerant)
                    .unwrap_or(false);
                let pinned = self.pinned.get(d).map(|p| p.contains(&h)).unwrap_or(false);
                if ft && !pinned {
                    owners.remove(&h);
                }
            }
        }
        dead
    }
}
