//! Two OS processes, one replicated database: a master replica in the
//! parent process and a slave replica in a child process, wired over
//! real loopback TCP — the deployment shape the paper runs on its
//! 19-node cluster, scaled down to one machine.
//!
//! The parent spawns itself with a `child` argument, exchanges listener
//! addresses over the child's stdio, executes an update transaction on
//! the master, and asks the child to run a read-only transaction tagged
//! with the commit's version vector. The child's read must observe the
//! update — the write-set crossed a process boundary as real bytes:
//! framed, checksummed, decoded and applied.
//!
//! Run with: `cargo run --example two_process_cluster`

use dmv::common::config::TcpConfig;
use dmv::common::ids::{NodeId, TableId};
use dmv::common::version::VersionVector;
use dmv::core::{Msg, ReplicaConfig, ReplicaNode};
use dmv::net::{DynTransport, TcpTransport, Transport};
use dmv::sql::{ColType, Column, IndexDef, Query, Schema, Select, TableSchema};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

const MASTER: NodeId = NodeId(0);
const SLAVE: NodeId = NodeId(10);

fn schema() -> Schema {
    Schema::new(vec![TableSchema::new(
        TableId(0),
        "kv",
        vec![Column::new("k", ColType::Int), Column::new("v", ColType::Int)],
        vec![IndexDef::unique("pk", vec![0])],
    )])
}

fn transport() -> Arc<TcpTransport<Msg>> {
    Arc::new(TcpTransport::new(TcpConfig {
        connect_backoff_base: Duration::from_millis(10),
        connect_backoff_cap: Duration::from_millis(200),
        ..TcpConfig::default()
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("child") {
        child(&args[2]);
    } else {
        parent();
    }
}

/// The parent: master replica + driver.
fn parent() {
    let net = transport();
    let master = ReplicaNode::start(
        MASTER,
        schema(),
        Arc::clone(&net) as DynTransport<Msg>,
        ReplicaConfig::default(),
    );
    let master_addr = net.addr_of(MASTER).expect("master listener bound");

    // Spawn the slave process, handing it our listener address.
    let exe = std::env::current_exe().expect("current_exe");
    let mut slave_proc = std::process::Command::new(exe)
        .arg("child")
        .arg(master_addr.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn child process");
    let mut child_in = slave_proc.stdin.take().expect("child stdin");
    let mut child_out = BufReader::new(slave_proc.stdout.take().expect("child stdout"));

    // The child reports its own listener address; wire it as a peer and
    // make it the master's replication target.
    let mut line = String::new();
    child_out.read_line(&mut line).expect("read child ADDR");
    let addr = line.strip_prefix("ADDR ").expect("ADDR line").trim();
    net.add_peer(SLAVE, addr.parse().expect("slave addr"));
    master.set_targets(vec![SLAVE]);
    println!("[parent] master {master_addr} <-> slave {addr}");

    // One update transaction: the write-set is broadcast to the slave
    // process at pre-commit and acknowledged before the local commit.
    let (_, version) = master
        .execute_update(&[Query::Insert {
            table: TableId(0),
            rows: vec![vec![1.into(), 42.into()]],
        }])
        .expect("update commits");
    println!("[parent] committed at version {version}");

    // Ask the child to read at exactly that version tag.
    let csv: Vec<String> = version.entries().iter().map(u64::to_string).collect();
    writeln!(child_in, "READ {}", csv.join(",")).expect("write READ");
    let mut reply = String::new();
    child_out.read_line(&mut reply).expect("read child reply");
    writeln!(child_in, "EXIT").expect("write EXIT");
    let status = slave_proc.wait().expect("child exit status");

    master.shutdown();
    net.shutdown();
    assert!(status.success(), "child process failed");
    assert_eq!(reply.trim(), "PASS", "child read did not observe the update: {reply}");
    println!("[parent] PASS: tagged read in the child process observed k=1 v=42");
}

/// The child: slave replica + stdio command loop.
fn child(master_addr: &str) {
    let net = transport();
    let slave = ReplicaNode::start(
        SLAVE,
        schema(),
        Arc::clone(&net) as DynTransport<Msg>,
        ReplicaConfig::default(),
    );
    net.add_peer(MASTER, master_addr.parse().expect("master addr"));
    println!("ADDR {}", net.addr_of(SLAVE).expect("slave listener bound"));

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("stdin line");
        if let Some(csv) = line.strip_prefix("READ ") {
            let entries: Vec<u64> =
                csv.trim().split(',').map(|s| s.parse().expect("version entry")).collect();
            let tag = VersionVector::from_entries(entries);
            // The write-set may still be in flight; version-conflict
            // aborts are retryable by design.
            let mut verdict = "FAIL no attempt".to_string();
            for _ in 0..50 {
                match slave.execute_read(&[Query::Select(Select::scan(TableId(0)))], &tag) {
                    Ok(rs) => {
                        let row = rs[0].rows.iter().find(|r| r[0].as_int() == Some(1));
                        verdict = match row {
                            Some(r) if r[1].as_int() == Some(42) => "PASS".to_string(),
                            Some(r) => format!("FAIL wrong value {:?}", r[1]),
                            None => "FAIL row missing".to_string(),
                        };
                        break;
                    }
                    Err(e) if e.is_retryable() => {
                        std::thread::sleep(Duration::from_millis(50));
                        verdict = format!("FAIL still aborting: {e}");
                    }
                    Err(e) => {
                        verdict = format!("FAIL {e}");
                        break;
                    }
                }
            }
            println!("{verdict}");
        } else if line.trim() == "EXIT" {
            break;
        }
    }
    slave.shutdown();
    net.shutdown();
}
