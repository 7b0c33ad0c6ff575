//! Smoke tests for the workspace surface: the umbrella crate must re-export
//! every layer, and the `rfaas` crate-level doc example (lease → hot invoke →
//! deallocate) must keep working both as a doctest (run with every other
//! library's doctests by `cargo test`) and as this compiled mirror of it — so
//! a regression in the documented entry-point flow fails the suite even if
//! doctests are filtered out.

use rfaas_repro::cluster_sim::NodeResources;
use rfaas_repro::rdma_fabric::Fabric;
use rfaas_repro::rfaas::{RFaasConfig, ResourceManager, Session, SpotExecutor};
use rfaas_repro::sandbox::{echo_function, CodePackage, FunctionRegistry};

/// Mirror of the `rfaas` crate-level doc example, invoked through the
/// umbrella crate's re-exports.
#[test]
fn rfaas_doc_example_flow_runs() {
    let fabric = Fabric::with_defaults();
    let registry = FunctionRegistry::new();
    registry.deploy(CodePackage::minimal("demo").with_function(echo_function()));
    let manager = ResourceManager::new(&fabric, RFaasConfig::default());
    let executor = SpotExecutor::new(
        &fabric,
        "node-1",
        NodeResources {
            cores: 4,
            memory_mib: 8192,
        },
        registry,
        RFaasConfig::default(),
    );
    manager.register_executor(&executor);

    let session = Session::builder(&fabric, "client", &manager, "demo")
        .connect()
        .unwrap();
    let echo = session.function::<[u8], [u8]>("echo").unwrap();
    let (reply, rtt) = echo.invoke_timed(b"hello rfaas").unwrap();
    assert_eq!(reply, b"hello rfaas");
    assert!(rtt.as_micros_f64() < 50.0);
    session.close().unwrap();
}

/// Every workspace layer is reachable through the umbrella crate, in DAG
/// order from `sim_core` at the bottom upward.
#[test]
fn umbrella_reexports_every_layer() {
    // sim-core: virtual time.
    let t = rfaas_repro::sim_core::SimDuration::from_micros(3);
    assert_eq!(t.as_nanos(), 3_000);

    // rdma-fabric: NIC cost profile.
    let profile = rfaas_repro::rdma_fabric::NicProfile::default();
    assert!(profile.one_way_latency.as_nanos() > 0);

    // net-stack: base64 codec used by the REST baselines.
    assert_eq!(rfaas_repro::net_stack::base64_encode(b"foo"), "Zm9v");

    // cluster-sim: the paper's evaluation node shape.
    let node = rfaas_repro::cluster_sim::NodeResources::xeon_gold_6154_dual();
    assert_eq!(node.cores, 36);

    // sandbox: the echo function ships in every registry.
    assert_eq!(rfaas_repro::sandbox::echo_function().name(), "echo");

    // workloads: deterministic payload generation.
    let payload = rfaas_repro::workloads::generate_payload(128, 7);
    assert_eq!(payload.len(), 128);
    assert_eq!(payload, rfaas_repro::workloads::generate_payload(128, 7));

    // faas-baselines: REST-based platforms exist for comparison.
    let lambda = rfaas_repro::faas_baselines::aws_lambda();
    assert!(lambda.accepts_payload(1024));

    // mpi-sim: cost model of the message-passing layer.
    let mpi = rfaas_repro::mpi_sim::MpiCostModel::cluster_100g();
    assert!(mpi.latency.as_nanos() > 0);
}

/// Every rank of the lock table is taken by some lock outside `sim-core`:
/// a rank nothing acquires is a stale table entry.
#[test]
fn every_lock_rank_is_taken() {
    use std::path::{Path, PathBuf};

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let table = std::fs::read_to_string(crates.join("sim-core/src/sync.rs")).unwrap();
    let ranks: Vec<&str> = table
        .lines()
        .filter_map(|line| line.trim().strip_prefix("pub const "))
        .filter_map(|decl| decl.split_once(": LockRank ="))
        .map(|(name, _)| name)
        .collect();
    assert!(!ranks.is_empty(), "no lock ranks parsed from sync.rs");

    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let dir = entry.unwrap().path();
        if dir.file_name().is_some_and(|n| n != "sim-core") && dir.join("src").is_dir() {
            rust_files(&dir.join("src"), &mut sources);
        }
    }
    let texts: Vec<String> = sources
        .iter()
        .map(|path| std::fs::read_to_string(path).unwrap())
        .collect();
    let taken = |name: &str| {
        let needle = format!("ranks::{name}");
        texts.iter().any(|text| {
            text.match_indices(&needle).any(|(at, _)| {
                let next = text[at + needle.len()..].chars().next();
                !next.is_some_and(|c| c == '_' || c.is_ascii_alphanumeric())
            })
        })
    };
    let untaken: Vec<&str> = ranks.iter().copied().filter(|name| !taken(name)).collect();
    assert!(untaken.is_empty(), "lock ranks nothing takes: {untaken:?}");
}
