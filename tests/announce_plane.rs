//! The UDP announce/discovery plane, end to end on the threaded runtime.
//!
//! Exercises the whole stack the PR introduces: heartbeat rounds that send
//! compact announce datagrams instead of the TCP catalog sync, the
//! service-side host cache feeding the scheduler's Ω bookkeeping, TTL
//! expiry of a silently dead host's claims (and the repair that follows),
//! graceful degradation to full TCP syncs while the datagram plane is
//! down, and scrape-driven peer discovery over the wire.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bitdew::core::api::{ActiveData, BitDewApi};
use bitdew::core::{
    AnnounceClient, AnnounceConfig, BitdewNode, DataAttributes, RuntimeConfig, ServiceContainer,
    FLAG_COMPLETE, FLAG_SERVING,
};

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 % 251) as u8).collect()
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drive heartbeat rounds on every node until `cond` holds.
fn pump(nodes: &[&Arc<BitdewNode>], cond: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        for n in nodes {
            n.heartbeat_round();
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn announce_rounds_replace_catalog_sync_in_steady_state() {
    let c = ServiceContainer::start(RuntimeConfig {
        announce: AnnounceConfig {
            full_sync_every: 4,
            ..AnnounceConfig::default()
        },
        ..RuntimeConfig::default()
    });
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(8_000);
    let data = client.create_data("steady", &content).unwrap();
    client.put(&data, &content).unwrap();
    client
        .schedule(
            &data,
            DataAttributes::default()
                .with_replica(2)
                .with_fault_tolerance(true),
        )
        .unwrap();

    let w1 = BitdewNode::new(Arc::clone(&c));
    let w2 = BitdewNode::new(Arc::clone(&c));
    pump(
        &[&w1, &w2],
        || w1.has_cached(data.id) && w2.has_cached(data.id),
        "replication",
    );
    // Settle the recent-work latch so the steady phase is clean.
    for _ in 0..2 {
        w1.heartbeat_round();
        w2.heartbeat_round();
    }

    // Steady state: of 8 rounds, only the every-4th are full TCP syncs.
    let mut fulls = 0;
    let mut announce_only = 0;
    for _ in 0..8 {
        for w in [&w1, &w2] {
            match w.heartbeat_round() {
                Some(_) => fulls += 1,
                None => announce_only += 1,
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        announce_only >= 8,
        "most steady-state rounds are datagram-only: {announce_only} of 16"
    );
    assert!(fulls <= 8, "full syncs are the every-nth minority: {fulls}");
    assert_eq!(w1.fallback_syncs() + w2.fallback_syncs(), 0);

    // The listener threads drained the datagrams into the host cache:
    // liveness flowed, and both replicas claim the datum as complete.
    let stats = c.announce_stats().expect("discovery plane running");
    wait_until("announces received", || stats.announces_rx() > 0);
    wait_until("both holders cached", || {
        let holders = c.announce_holders(data.id);
        [w1.uid, w2.uid].iter().all(|u| {
            holders
                .iter()
                .any(|(h, f)| h == u && f & FLAG_COMPLETE != 0)
        })
    });
}

#[test]
fn udp_outage_degrades_to_tcp_sync_with_no_lost_replicas() {
    let c = ServiceContainer::start(RuntimeConfig {
        announce: AnnounceConfig {
            full_sync_every: 4,
            ..AnnounceConfig::default()
        },
        ..RuntimeConfig::default()
    });
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(8_000);
    let data = client.create_data("durable", &content).unwrap();
    client.put(&data, &content).unwrap();
    client
        .schedule(
            &data,
            DataAttributes::default()
                .with_replica(2)
                .with_fault_tolerance(true),
        )
        .unwrap();

    let w1 = BitdewNode::new(Arc::clone(&c));
    let w2 = BitdewNode::new(Arc::clone(&c));
    pump(
        &[&w1, &w2],
        || w1.has_cached(data.id) && w2.has_cached(data.id),
        "replication",
    );

    // Kill the datagram plane: every announce round must degrade to a
    // full TCP sync — liveness and the replica view survive on TCP.
    c.fabric.udp().set_down(true);
    for _ in 0..8 {
        for w in [&w1, &w2] {
            assert!(
                w.heartbeat_round().is_some(),
                "every round is a TCP sync while the datagram plane is down"
            );
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(w1.fallback_syncs() >= 1);
    assert!(w2.fallback_syncs() >= 1);
    assert!(w1.has_cached(data.id) && w2.has_cached(data.id));
    assert_eq!(c.owners_of(data.id).len(), 2, "no replica lost");

    // Revive: the nodes re-handshake and datagram-only rounds resume.
    c.fabric.udp().set_down(false);
    let mut resumed = false;
    for _ in 0..64 {
        if w1.heartbeat_round().is_none() {
            resumed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(resumed, "announce rounds resumed after the plane revived");
    assert_eq!(c.owners_of(data.id).len(), 2);
}

#[test]
fn ttl_sweep_drops_silent_host_and_repair_regenerates_replica() {
    // The satellite scenario: a host dies silently — it stops announcing
    // AND stops syncing. The failure detector is pinned out of reach
    // (detector_factor = 1000 and nothing calls it), so only the host
    // cache's TTL sweep can notice; its eviction must drop the host from
    // Ω and the next full sync must re-replicate onto the survivor.
    let c = ServiceContainer::start(RuntimeConfig {
        detector_factor: 1000,
        announce: AnnounceConfig {
            ttl_factor: 4, // TTL = 200 ms at the 50 ms default heartbeat
            full_sync_every: 4,
            ..AnnounceConfig::default()
        },
        ..RuntimeConfig::default()
    });
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(8_000);
    let data = client.create_data("precious", &content).unwrap();
    client.put(&data, &content).unwrap();
    client
        .schedule(
            &data,
            DataAttributes::default()
                .with_replica(1)
                .with_fault_tolerance(true),
        )
        .unwrap();

    let w1 = BitdewNode::new(Arc::clone(&c));
    pump(&[&w1], || w1.has_cached(data.id), "first replica");
    wait_until("w1's claim cached", || {
        c.announce_holders(data.id)
            .iter()
            .any(|(h, _)| *h == w1.uid)
    });

    // w1 goes silent (no more heartbeat_round calls); w2 keeps beating.
    let w2 = BitdewNode::new(Arc::clone(&c));
    pump(
        &[&w2],
        || w2.has_cached(data.id),
        "repair onto the survivor",
    );

    let stats = c.announce_stats().expect("discovery plane running");
    assert!(
        stats.cache_evictions() >= 1,
        "the TTL sweep evicted the silent host's claims"
    );
    let owners = c.owners_of(data.id);
    assert!(owners.contains(&w2.uid), "survivor owns the datum");
    assert!(
        !owners.contains(&w1.uid),
        "silent host left the replica view"
    );
    wait_until("survivor's claim cached", || {
        let holders = c.announce_holders(data.id);
        holders.iter().any(|(h, _)| *h == w2.uid) && !holders.iter().any(|(h, _)| *h == w1.uid)
    });
}

#[test]
fn scrape_lists_announced_serving_peers_over_the_wire() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(300_000);
    let data = client.create_data("scraped", &content).unwrap();
    client.put_chunked(&data, &content, 64 * 1024).unwrap();
    client
        .schedule(
            &data,
            DataAttributes::default()
                .with_replica(1)
                .with_fault_tolerance(true),
        )
        .unwrap();

    let w1 = BitdewNode::new(Arc::clone(&c));
    w1.enable_serving();
    pump(&[&w1], || w1.has_cached(data.id), "chunked replica");
    wait_until("holder cached", || {
        c.announce_holders(data.id)
            .iter()
            .any(|(h, _)| *h == w1.uid)
    });

    // A fresh peer scrapes the announce server directly: one connect
    // handshake, one scrape, and the serving replica comes back with its
    // flags — replica discovery with no catalog query at all.
    let scraper = AnnounceClient::connect(
        &c.fabric,
        "peer.test-scraper.udp",
        Duration::from_millis(500),
    )
    .expect("handshake with the announce server");
    let hosts = scraper
        .scrape(data.id, Duration::from_millis(500))
        .expect("scrape reply");
    let flags = hosts
        .iter()
        .find(|(h, _)| *h == w1.uid)
        .map(|(_, f)| *f)
        .expect("serving worker listed");
    assert!(flags & FLAG_SERVING != 0, "worker scraped as serving");
    assert!(flags & FLAG_COMPLETE != 0, "worker scraped as complete");
}

#[test]
fn zero_cadence_factors_mean_one_heartbeat_ttl_and_every_round_full() {
    let heartbeat = Duration::from_secs(1);
    let c = ServiceContainer::start(RuntimeConfig {
        heartbeat,
        announce: AnnounceConfig {
            ttl_factor: 0,
            full_sync_every: 0,
            ..AnnounceConfig::default()
        },
        ..RuntimeConfig::default()
    });
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(8_000);
    let data = client.create_data("edge", &content).unwrap();
    client.put(&data, &content).unwrap();
    client
        .schedule(&data, DataAttributes::default().with_replica(1))
        .unwrap();

    // full_sync_every = 0: every round is a full sync. The round that
    // caches the datum also claims it.
    let w = BitdewNode::new(Arc::clone(&c));
    while !w.has_cached(data.id) {
        assert!(w.heartbeat_round().is_some(), "a round ran without a sync");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(w.fallback_syncs(), 0);
    let claimed = Instant::now();

    // ttl_factor = 0: the claim lives one heartbeat, not none.
    let holds = || c.announce_holders(data.id).iter().any(|(h, _)| *h == w.uid);
    wait_until("the claim cached", holds);
    std::thread::sleep(Duration::from_millis(50));
    if claimed.elapsed() < heartbeat / 2 {
        assert!(holds(), "the claim expired within its heartbeat");
    }
    // Never refreshed, it expires.
    wait_until("the claim expired", || !holds());
}

#[test]
fn stale_holder_of_a_fully_rewritten_datum_is_demoted_and_repaired() {
    // Both chunks are rewritten after the version the holder has, so no
    // chunk of its replica is valid at the head. Its next claim must take
    // it out of Ω as a partial holder of nothing, and the repair order
    // that follows must give it the head bytes.
    let c = ServiceContainer::start(RuntimeConfig {
        heartbeat: Duration::from_millis(10),
        announce: AnnounceConfig {
            // A 400 ms TTL: a claim is due again after 200 ms, and no
            // claim expires while the test runs.
            ttl_factor: 40,
            full_sync_every: 1,
            ..AnnounceConfig::default()
        },
        ..RuntimeConfig::default()
    });
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(8_192);
    let data = client.create_data("rewritten", &content).unwrap();
    client.put_chunked(&data, &content, 4_096).unwrap();
    client
        .schedule(&data, DataAttributes::default().with_replica(1))
        .unwrap();
    let w = BitdewNode::new(Arc::clone(&c));
    pump(
        &[&w],
        || w.has_cached(data.id) && c.owners_of(data.id).contains(&w.uid),
        "the first replica",
    );

    let head: Vec<u8> = content.iter().map(|b| b ^ 0xFF).collect();
    let version = client
        .commit_update(&data, 1, &[(0, head.clone())])
        .unwrap();
    assert_eq!(version, 2);

    // One round whose claim is due: the holder announces version 1.
    std::thread::sleep(Duration::from_millis(250));
    w.heartbeat_round();
    wait_until("the stale holder leaving Ω", || {
        !c.owners_of(data.id).contains(&w.uid)
    });

    // The next full sync orders a repair: the datum stays cached while
    // both chunks move again.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut repair_started = false;
    while !(w.read_local(&data).is_ok_and(|b| b == head) && c.owners_of(data.id).contains(&w.uid)) {
        if let Some(summary) = w.heartbeat_round() {
            assert!(!summary.deleted.contains(&data.id), "purged, not repaired");
            repair_started |= summary.started.contains(&data.id);
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the head bytes"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(repair_started, "a repair order moved the chunks");
    assert!(w.has_cached(data.id));
}
