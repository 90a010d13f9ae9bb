//! Cross-crate integration tests: full BitDew scenarios spanning the data
//! space, the scheduler, the transports and the master/worker layer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bitdew::core::{
    BitdewNode, CallbackHandler, DataAttributes, EventFilter, Lifetime, RuntimeConfig,
    ServiceContainer, REPLICA_ALL,
};
use bitdew::mw::{ComputeFn, MwMaster, MwWorker};
use bitdew::transport::ProtocolId;

fn pump_until<F: Fn() -> bool>(nodes: &[Arc<BitdewNode>], done: F, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        for n in nodes {
            n.sync_once();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

#[test]
fn full_pipeline_over_all_three_protocols() {
    // One datum per protocol, all replica=-1, all must reach both workers
    // with verified content.
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let mut payloads = Vec::new();
    for (i, proto) in [
        ProtocolId::ftp(),
        ProtocolId::http(),
        ProtocolId::bittorrent(),
    ]
    .into_iter()
    .enumerate()
    {
        let content: Vec<u8> = (0..300_000u32)
            .map(|x| ((x + i as u32 * 7) % 251) as u8)
            .collect();
        let data = client
            .create_data(&format!("multi-{proto}"), &content)
            .unwrap();
        client.put(&data, &content).unwrap();
        client
            .schedule(
                &data,
                DataAttributes::default()
                    .with_replica(REPLICA_ALL)
                    .with_protocol(proto),
            )
            .unwrap();
        payloads.push((data, content));
    }
    let w1 = BitdewNode::new(Arc::clone(&c));
    let w2 = BitdewNode::new(Arc::clone(&c));
    let nodes = [Arc::clone(&w1), Arc::clone(&w2)];
    assert!(pump_until(
        &nodes,
        || payloads
            .iter()
            .all(|(d, _)| w1.has_cached(d.id) && w2.has_cached(d.id)),
        120
    ));
    for (data, content) in &payloads {
        for w in [&w1, &w2] {
            let got = w
                .local_store()
                .read_at(&data.object_name(), 0, content.len())
                .unwrap();
            assert_eq!(&got[..], &content[..], "content of {} verified", data.name);
        }
    }
}

#[test]
fn fault_tolerant_data_moves_to_surviving_worker() {
    // replica=1, ft=true: worker 1 takes the datum and "crashes" (stops
    // heartbeating); after the detector timeout the datum must reappear on
    // worker 2. Uses a fast heartbeat so the test runs in milliseconds.
    let config = RuntimeConfig {
        heartbeat: Duration::from_millis(30),
        ..Default::default()
    };
    let c = ServiceContainer::start(config);
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = vec![7u8; 40_000];
    let data = client.create_data("resilient", &content).unwrap();
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
    assert!(pump_until(
        &[Arc::clone(&w1)],
        || w1.has_cached(data.id),
        30
    ));

    // w1 goes silent. Drive only w2 plus the failure detector.
    let w2 = BitdewNode::new(Arc::clone(&c));
    let deadline = Instant::now() + Duration::from_secs(30);
    while !w2.has_cached(data.id) {
        assert!(Instant::now() < deadline, "takeover timed out");
        c.detect_failures();
        w2.sync_once();
        std::thread::sleep(Duration::from_millis(5));
    }
    let owners = c.owners_of(data.id);
    assert_eq!(owners, vec![w2.uid], "ownership moved to the survivor");
}

#[test]
fn relative_lifetime_cascade_cleans_worker_caches() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let anchor = client.create_slot("anchor", 0).unwrap();
    client
        .schedule(&anchor, DataAttributes::default().with_replica(REPLICA_ALL))
        .unwrap();
    let dep = client.create_data("dependent", b"payload").unwrap();
    client.put(&dep, b"payload").unwrap();
    client
        .schedule(
            &dep,
            DataAttributes::default()
                .with_replica(REPLICA_ALL)
                .with_lifetime(Lifetime::RelativeTo(anchor.id)),
        )
        .unwrap();
    let w = BitdewNode::new(Arc::clone(&c));
    let nodes = [Arc::clone(&w)];
    assert!(pump_until(
        &nodes,
        || w.has_cached(dep.id) && w.has_cached(anchor.id),
        30
    ));

    client.delete(&anchor).unwrap();
    assert!(pump_until(
        &nodes,
        || !w.has_cached(dep.id) && !w.has_cached(anchor.id),
        30
    ));
    assert!(
        !w.local_store().exists(&dep.object_name()),
        "content purged too"
    );
}

#[test]
fn events_follow_the_listing2_contract() {
    // The Updatee handler pattern: onDataCopy fires with the attribute the
    // datum was scheduled with; onDataDelete fires when it expires.
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let data = client.create_data("update", b"v2").unwrap();
    client.put(&data, b"v2").unwrap();

    let log: Arc<std::sync::Mutex<Vec<String>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let w = BitdewNode::new(Arc::clone(&c));
    let l2 = Arc::clone(&log);
    let l3 = Arc::clone(&log);
    w.add_handler(
        EventFilter::any(),
        Box::new(
            CallbackHandler::new()
                .on_copy(move |d, a| {
                    l2.lock()
                        .unwrap()
                        .push(format!("copy:{}:r{}", d.name, a.replica));
                })
                .on_delete(move |d, _| {
                    l3.lock().unwrap().push(format!("delete:{}", d.name));
                }),
        ),
    );
    client
        .schedule(&data, DataAttributes::default().with_replica(2))
        .unwrap();
    let nodes = [Arc::clone(&w)];
    assert!(pump_until(&nodes, || !log.lock().unwrap().is_empty(), 30));
    assert_eq!(log.lock().unwrap()[0], "copy:update:r2");

    client.delete(&data).unwrap();
    assert!(pump_until(&nodes, || log.lock().unwrap().len() >= 2, 30));
    assert_eq!(log.lock().unwrap()[1], "delete:update");
}

#[test]
fn mw_survives_worker_crash_mid_run() {
    // Tasks are ft=true: a worker that dies after claiming tasks must not
    // stall the run — the failure detector frees its tasks for the others.
    let config = RuntimeConfig {
        heartbeat: Duration::from_millis(30),
        ..Default::default()
    };
    let c = ServiceContainer::start(config);
    let master_node = BitdewNode::new_client(Arc::clone(&c));
    let mut master = MwMaster::new(Arc::clone(&master_node)).unwrap();
    let compute: ComputeFn = Arc::new(|name, _| name.as_bytes().to_vec());

    let mut mw1 = MwWorker::attach(
        BitdewNode::new(Arc::clone(&c)),
        master.collector().id,
        Arc::clone(&compute),
    );
    for i in 0..4 {
        master.submit(&format!("t{i}"), b"input").unwrap();
    }
    // Let w1 claim some tasks…
    for _ in 0..10 {
        mw1.pump().unwrap();
        master.pump().unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }
    // …then w1 "crashes" (no more pumps). A fresh worker finishes the job.
    let mut mw2 = MwWorker::attach(
        BitdewNode::new(Arc::clone(&c)),
        master.collector().id,
        compute,
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    while master.results().len() < 4 {
        assert!(Instant::now() < deadline, "MW run stalled after crash");
        c.detect_failures();
        mw2.pump().unwrap();
        master.pump().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(master.results().len(), 4);
}

#[test]
fn search_and_attribute_language_work_end_to_end() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let node = BitdewNode::new(Arc::clone(&c));
    let gene = node.create_data("Genebase", b"ACGT").unwrap();
    // Listing 3 style definition referencing the Genebase by name.
    let attrs = node
        .create_attribute(
            "attribute Sequence = { fault tolerance = true, protocol = \"http\",\n\
             replication = 2, affinity = Genebase }",
        )
        .unwrap();
    assert!(attrs.fault_tolerant);
    assert_eq!(attrs.replica, 2);
    assert_eq!(attrs.affinity, Some(gene.id));
    assert_eq!(attrs.protocol, ProtocolId::http());
    // And the search API finds the referenced datum.
    assert_eq!(node.search("Genebase").unwrap(), vec![gene]);
}
