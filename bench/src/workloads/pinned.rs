//! Counts a deterministic scenario must reproduce, pinned per seed in
//! `bench/baseline/pinned.json`. A seed with no entry is not checked.
//!
//! Only the first scenario a process builds is reproducible:
//! `Auid::generate` numbers the ids it mints from a process-wide counter, so
//! a later round's hosts get other ids and its counts differ. Callers check
//! and report round 0.

use std::sync::OnceLock;

use crate::json::{self, Json};

fn table() -> &'static Json {
    static TABLE: OnceLock<Json> = OnceLock::new();
    TABLE.get_or_init(|| {
        json::parse(include_str!("../../baseline/pinned.json")).expect("pinned.json parses")
    })
}

/// Fails when `counts` differ from the values pinned for this seed.
pub fn check(workload: &str, seed: u64, counts: &[(&'static str, f64)]) -> Result<(), String> {
    let Some(pins) = table()
        .get(workload)
        .and_then(|w| w.get(&seed.to_string()))
        .and_then(Json::as_obj)
    else {
        return Ok(());
    };
    for (name, pin) in pins {
        let got = counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        if got != pin.as_f64() {
            return Err(format!(
                "{workload} seed {seed}: `{name}` is {got:?}, pinned {:?}",
                pin.as_f64()
            ));
        }
    }
    Ok(())
}
