//! The point of the API redesign, proven end to end: ONE generic scenario
//! function, written against the three trait APIs of `bitdew::core::api`,
//! executed on BOTH the threaded runtime (`BitdewNode`) and the
//! discrete-event simulator (`SimNode`) — plus the batched entry points and
//! the unified error model under forced failures.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitdew::core::api::{ActiveData, BitDewApi, BitdewError, TransferManager};
use bitdew::core::services::transfer::{TransferId, TransferState};
use bitdew::core::simdriver::{SimBitdew, SimNode};
use bitdew::core::{
    BitdewNode, ChunkManifest, Data, DataAttributes, LocatorRef, RuntimeConfig, ServiceContainer,
    VersionedManifest, REPLICA_ALL,
};
use bitdew::sim::{topology, Sim, SimDuration, SimTime, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The generic scenario: create + put a replicated datum and a per-protocol
/// one, schedule both (batched), pump everyone until the workers hold them,
/// exercise search and the attribute language, then delete and verify the
/// cascade purge. Never mentions a deployment.
fn replicate_scenario<N>(client: &N, workers: &[N]) -> bitdew::core::Result<()>
where
    N: BitDewApi + ActiveData + TransferManager,
{
    let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
    let shared = client.create_data("scenario.shared", &payload)?;
    let solo = client.create_data("scenario.solo", b"just one copy")?;
    // Batched data-space write, then batched scheduling.
    client.put_many(&[(shared.clone(), &payload), (solo.clone(), b"just one copy")])?;
    client.schedule_many(&[
        (
            shared.clone(),
            DataAttributes::default().with_replica(REPLICA_ALL),
        ),
        (solo.clone(), DataAttributes::default().with_replica(1)),
    ])?;

    // Pump until every worker holds the replicated datum AND the solo
    // replica landed somewhere (its transfer may finish after shared's).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        client.pump()?;
        for w in workers {
            w.pump()?;
        }
        if workers.iter().all(|w| w.has_cached(shared.id))
            && workers.iter().any(|w| w.has_cached(solo.id))
        {
            break;
        }
        assert!(Instant::now() < deadline, "replication timed out");
    }
    // replica=1 lands on exactly one worker.
    let solo_owners = workers.iter().filter(|w| w.has_cached(solo.id)).count();
    assert_eq!(solo_owners, 1, "replica=1 placed exactly once");

    // Content is verifiable wherever it landed.
    for w in workers {
        assert_eq!(w.read_local(&shared)?, payload);
    }

    // The data space answers searches and resolves attribute names.
    assert_eq!(client.search("scenario.shared")?, vec![shared.clone()]);
    let attrs =
        client.create_attribute("attr dep = { replica = 2, affinity = \"scenario.shared\" }")?;
    assert_eq!(attrs.replica, 2);
    assert_eq!(attrs.affinity, Some(shared.id));

    // Deletion propagates to every cache.
    client.delete(&shared)?;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        client.pump()?;
        for w in workers {
            w.pump()?;
        }
        if workers.iter().all(|w| !w.has_cached(shared.id)) {
            return Ok(());
        }
        assert!(Instant::now() < deadline, "purge timed out");
    }
}

#[test]
fn same_scenario_fn_passes_on_threaded_runtime() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let workers: Vec<Arc<BitdewNode>> = (0..2).map(|_| BitdewNode::new(Arc::clone(&c))).collect();
    replicate_scenario(&client, &workers).expect("threaded run");
}

#[test]
fn same_scenario_fn_passes_on_simulator() {
    let topo = topology::gdx_cluster(3);
    let sim = Rc::new(RefCell::new(Sim::new(11)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_millis(250),
        Trace::new(),
    );
    let client = SimNode::attach_client(&sim, &driver, topo.workers[0], SimTime::ZERO);
    let workers: Vec<SimNode> = (1..=2)
        .map(|i| SimNode::attach(&sim, &driver, topo.workers[i], SimTime::ZERO))
        .collect();
    replicate_scenario(&client, &workers).expect("simulated run");
    // And it all happened in virtual time, fast.
    assert!(sim.borrow().now().as_secs_f64() < 3600.0);
}

#[test]
fn wait_all_drives_batched_gets_to_completion() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let contents: Vec<Vec<u8>> = (0..4u8)
        .map(|k| {
            (0..40_000u32)
                .map(|i| ((i + k as u32) % 251) as u8)
                .collect()
        })
        .collect();
    let data: Vec<Data> = contents
        .iter()
        .enumerate()
        .map(|(i, c2)| client.create_data(&format!("batch-{i}"), c2).unwrap())
        .collect();
    let batch: Vec<(Data, &[u8])> = data
        .iter()
        .cloned()
        .zip(contents.iter().map(|c2| c2.as_slice()))
        .collect();
    client.put_many(&batch).unwrap();

    let fetcher = BitdewNode::new(Arc::clone(&c));
    let ids: Vec<_> = data.iter().map(|d| fetcher.get(d).unwrap()).collect();
    let states = fetcher.wait_all(&ids).unwrap();
    assert!(states.iter().all(|s| *s == TransferState::Complete));
    for (d, content) in data.iter().zip(&contents) {
        assert_eq!(&fetcher.read_local(d).unwrap(), content);
    }
}

/// An API answer with the error kept as its display text, so two
/// backends' answers compare whole.
type Answer<T> = std::result::Result<T, String>;

fn answer<T>(r: bitdew::core::Result<T>) -> Answer<T> {
    r.map_err(|e| e.to_string())
}

/// What one backend answers for ranges whose end overflows, for a slot
/// `put` twice, and for a versioned chunked datum after its delete.
#[derive(Debug, PartialEq)]
struct EdgeAnswers {
    get_range: Answer<Vec<u8>>,
    get_range_local: Answer<Vec<u8>>,
    get_range_local_chunked: Answer<Vec<u8>>,
    put_range: Answer<()>,
    put_range_chunked: Answer<()>,
    reput_get_range: Answer<Vec<u8>>,
    deleted_chunk_manifest: Answer<Option<ChunkManifest>>,
    deleted_version_head: Answer<u64>,
    deleted_version_manifest: Answer<Option<VersionedManifest>>,
    deleted_held_chunks: Answer<Vec<u32>>,
    deleted_fetch_chunks: Answer<u64>,
}

/// The contract's edges, written once for both backends: `wait_all`
/// completes three concurrent gets and rejects an unknown id as a catalog
/// miss; ranges whose end overflows read short or fail, never panic; a
/// second, shorter `put` replaces the content; a deleted datum keeps no
/// manifest, version or chunk behind.
fn edge_contract<N: BitDewApi + TransferManager>(node: &N, payload: &[u8]) -> EdgeAnswers {
    let data: Vec<Data> = (0..3)
        .map(|i| {
            let d = node.create_data(&format!("edge.{i}"), payload).unwrap();
            node.put(&d, payload).unwrap();
            d
        })
        .collect();
    let ids: Vec<TransferId> = data.iter().map(|d| node.get(d).unwrap()).collect();
    assert_eq!(
        node.wait_all(&ids).unwrap(),
        vec![TransferState::Complete; 3]
    );
    match node.wait_all(&[TransferId(u64::MAX)]) {
        Err(BitdewError::CatalogMiss { .. }) => {}
        other => panic!("expected CatalogMiss, got {other:?}"),
    }

    let chunked = node.create_data("edge.chunked", payload).unwrap();
    node.put_chunked(&chunked, payload, 4_096).unwrap();
    node.fetch_chunks(&chunked, &[0, 1, 2]).unwrap();

    let slot = node.create_slot("edge.slot", 64).unwrap();
    node.put(&slot, &[1; 50]).unwrap();
    node.put(&slot, &[2; 30]).unwrap();

    let doomed = node.create_data("edge.doomed", payload).unwrap();
    node.put_chunked(&doomed, payload, 4_096).unwrap();
    node.fetch_chunks(&doomed, &[0]).unwrap();
    node.commit_update(&doomed, 1, &[(0, vec![7; 16])]).unwrap();
    node.delete(&doomed).unwrap();

    let plain = &data[0];
    EdgeAnswers {
        get_range: answer(node.get_range(plain, 1, usize::MAX)),
        get_range_local: answer(node.get_range_local(plain, 1, usize::MAX)),
        get_range_local_chunked: answer(node.get_range_local(&chunked, 1, usize::MAX)),
        put_range: answer(node.put_range(plain, u64::MAX - 1, b"xy")),
        put_range_chunked: answer(node.put_range(&chunked, u64::MAX - 1, b"xy")),
        reput_get_range: answer(node.get_range(&slot, 0, 64)),
        deleted_chunk_manifest: answer(node.chunk_manifest(doomed.id)),
        deleted_version_head: answer(node.version_head(doomed.id)),
        deleted_version_manifest: answer(node.version_manifest(doomed.id, 1)),
        deleted_held_chunks: answer(node.held_chunks(&doomed)),
        deleted_fetch_chunks: answer(node.fetch_chunks(&doomed, &[0, 1])),
    }
}

#[test]
fn both_backends_answer_the_contract_edges_identically() {
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();

    let c = ServiceContainer::start(RuntimeConfig::default());
    let threaded = edge_contract(&BitdewNode::new(Arc::clone(&c)), &payload);

    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(17)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let node = SimNode::attach(&sim, &driver, topo.workers[0], SimTime::ZERO);
    let simulated = edge_contract(&node, &payload);

    // Reads past the end are short: everything after offset 1.
    assert_eq!(threaded.get_range, Ok(payload[1..].to_vec()));
    assert_eq!(threaded.get_range_local, Ok(payload[1..].to_vec()));
    assert_eq!(threaded.get_range_local_chunked, Ok(payload[1..].to_vec()));
    assert!(threaded.put_range.is_err() && threaded.put_range_chunked.is_err());
    assert_eq!(threaded.reput_get_range, Ok(vec![2; 30]));
    assert_eq!(threaded.deleted_version_head, Ok(0));
    assert!(threaded.deleted_fetch_chunks.is_err());
    assert_eq!(threaded, simulated);
}

/// Random commits of one to three writes each, after three scripted ones:
/// two overlapping writes in one commit, a write straddling a chunk
/// boundary, and a write into the short last chunk. After every commit the
/// head's chunk map equals a fresh describe of the model content, so each
/// patched CRC equals a full recompute; at the end the canonical bytes are
/// the model's.
fn head_digests_follow_commits<N: BitDewApi>(node: &N, seed: u64) {
    const CHUNK: u64 = 4_096;
    let mut model: Vec<u8> = (0..5 * CHUNK + 1_000).map(|i| (i % 251) as u8).collect();
    let total = model.len() as u64;
    let data = node.create_data("digests", &model).unwrap();
    node.put_chunked(&data, &model, CHUNK).unwrap();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut commits: Vec<Vec<(u64, Vec<u8>)>> = vec![
        vec![(100, vec![1; 300]), (250, vec![2; 300])],
        vec![(CHUNK - 10, vec![3; 20])],
        vec![(total - 500, vec![4; 200])],
    ];
    for _ in 0..40 {
        let writes = (0..rng.gen_range(1..4))
            .map(|_| {
                let len = rng.gen_range(1..2 * CHUNK);
                let offset = rng.gen_range(0..total - len);
                (offset, (0..len).map(|_| rng.gen()).collect())
            })
            .collect();
        commits.push(writes);
    }

    let mut version = 1;
    for writes in &commits {
        version = node.commit_update(&data, version, writes).unwrap();
        for (offset, bytes) in writes {
            let at = *offset as usize;
            model[at..at + bytes.len()].copy_from_slice(bytes);
        }
        assert_eq!(
            node.chunk_manifest(data.id).unwrap(),
            Some(ChunkManifest::describe(data.id, CHUNK, &model)),
            "head digests after version {version}"
        );
    }
    assert_eq!(version, 1 + commits.len() as u64);
    assert_eq!(node.get_range(&data, 0, model.len()).unwrap(), model);
}

#[test]
fn head_digests_equal_a_fresh_describe_on_both_backends() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    head_digests_follow_commits(&BitdewNode::new(Arc::clone(&c)), 31);

    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(31)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let node = SimNode::attach(&sim, &driver, topo.workers[0], SimTime::ZERO);
    head_digests_follow_commits(&node, 31);
}

#[test]
fn transfer_failures_surface_through_the_unified_error_model() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));

    // A datum that was never `put` has no locator: get() is a catalog miss.
    let ghost = client
        .create_data("ghost", b"registered but never put")
        .unwrap();
    match client.get(&ghost) {
        Err(BitdewError::CatalogMiss { what }) => assert!(what.contains("ghost"), "{what}"),
        other => panic!("expected CatalogMiss, got {other:?}"),
    }

    // A locator pointing at a dead endpoint fails in transport terms.
    let stale = client.create_data("stale", b"content").unwrap();
    c.plane
        .add_locators(&[LocatorRef {
            data: stale.id,
            protocol: "ftp",
            remote: "no.such.listener",
            object: &stale.object_name(),
        }])
        .unwrap();
    match client.get(&stale) {
        Err(BitdewError::Transport(_)) => {}
        other => panic!("expected Transport error, got {other:?}"),
    }

    // Unknown transfer ids are errors, not silent Nones.
    assert!(matches!(
        client.try_wait(bitdew::core::services::transfer::TransferId(999_999)),
        Err(BitdewError::CatalogMiss { .. })
    ));
}

#[test]
fn both_backends_reject_invalid_schedules_identically() {
    // replica < -1 and self-affinity are scheduler errors on BOTH backends.
    let c = ServiceContainer::start(RuntimeConfig::default());
    let threaded = BitdewNode::new(Arc::clone(&c));

    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(9)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let simulated = SimNode::attach(&sim, &driver, topo.workers[0], SimTime::ZERO);

    fn probe<N: BitDewApi + ActiveData>(node: &N) {
        let d = node.create_data("strict", b"x").unwrap();
        match node.schedule(&d, DataAttributes::default().with_replica(-7)) {
            Err(BitdewError::Scheduler { what }) => assert!(what.contains("-7"), "{what}"),
            other => panic!("expected Scheduler error, got {other:?}"),
        }
        match node.schedule(&d, DataAttributes::default().with_affinity(d.id)) {
            Err(BitdewError::Scheduler { what }) => assert!(what.contains("itself"), "{what}"),
            other => panic!("expected Scheduler error, got {other:?}"),
        }
    }
    probe(&threaded);
    probe(&simulated);
}

#[test]
fn sim_transfer_failure_reports_failed_state() {
    // Under the simulator: a direct get whose host dies mid-flow resolves
    // Failed through the same TransferManager surface.
    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(5)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let node = SimNode::attach(&sim, &driver, topo.workers[0], SimTime::ZERO);
    let big = node.create_data("doomed", &[1u8; 64]).unwrap();
    // Describe it as a large transfer so the flow is still running when the
    // host is killed (content size is metadata in the simulator; the empty
    // `put` marks it available, as a slot carries no checksum to violate).
    let big = Data::slot(big.id, "doomed", 500_000_000);
    driver.register_data(&big);
    node.put(&big, b"").unwrap();
    let tid = node.get(&big).unwrap();

    let net = topo.net.clone();
    let victim = topo.workers[0];
    sim.borrow_mut()
        .schedule_at(SimTime::from_secs(2), move |sim| {
            net.set_host_enabled(sim, victim, false);
        });
    assert_eq!(node.wait_for(tid).unwrap(), TransferState::Failed);
}

#[test]
fn try_wait_is_nonblocking_on_both_backends() {
    // Threaded: an in-flight transfer reports None, then Complete.
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = vec![9u8; 200_000];
    let d = client.create_data("poll-me", &content).unwrap();
    client.put(&d, &content).unwrap();
    let fetcher = BitdewNode::new(Arc::clone(&c));
    let tid = fetcher.get(&d).unwrap();
    // Poll until terminal without ever calling the blocking wait.
    let deadline = Instant::now() + Duration::from_secs(30);
    let final_state = loop {
        if let Some(s) = fetcher.try_wait(tid).unwrap() {
            break s;
        }
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(final_state, TransferState::Complete);

    // Simulator: try_wait never advances virtual time.
    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(6)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let node = SimNode::attach(&sim, &driver, topo.workers[0], SimTime::ZERO);
    let content = vec![2u8; 10_000_000];
    let d = node.create_data("sim-poll", &content).unwrap();
    node.put(&d, &content).unwrap();
    let tid = node.get(&d).unwrap();
    let before = sim.borrow().now();
    assert_eq!(node.try_wait(tid).unwrap(), None);
    assert_eq!(
        sim.borrow().now(),
        before,
        "try_wait must not advance the clock"
    );
    assert_eq!(node.wait_for(tid).unwrap(), TransferState::Complete);
}
