//! The loopback TCP harness shared by the deployment-equivalence suites.

use fedguard::experiment::{build_client, run_served_experiment, ExperimentConfig, RunArtifacts};
use fg_fl::{
    run_federated_client, ClientRunReport, NetConfig, TcpClientChannel, TcpTransport, WireStats,
};
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

pub fn net_cfg() -> NetConfig {
    NetConfig {
        read_timeout: Duration::from_secs(60),
        write_timeout: Duration::from_secs(20),
        join_timeout: Duration::from_secs(20),
        heartbeat_interval: Duration::from_secs(5),
        ..NetConfig::default()
    }
}

/// A server transport for `cfg` on an ephemeral loopback port.
pub fn bind_for(cfg: &ExperimentConfig) -> (TcpTransport, SocketAddr) {
    let blob = serde_json::to_string(cfg).expect("config serializes");
    let param_len = cfg.fed.classifier.num_params() as u64;
    let transport =
        TcpTransport::bind("127.0.0.1:0", cfg.fed.n_clients, param_len, blob, net_cfg())
            .expect("bind loopback transport")
            .with_compression(cfg.compression);
    let addr = transport.local_addr().expect("ephemeral address");
    (transport, addr)
}

/// Serve `cfg` over loopback TCP with one well-behaved worker thread per
/// client, exactly as the `fed_server`/`fed_client` binaries do.
pub fn serve_over_tcp(
    cfg: &ExperimentConfig,
) -> (RunArtifacts, Vec<ClientRunReport>, Vec<WireStats>) {
    let (mut transport, addr) = bind_for(cfg);
    let wire_log = transport.wire_log();
    let handles: Vec<_> = (0..cfg.fed.n_clients)
        .map(|id| {
            thread::spawn(move || {
                let mut channel =
                    TcpClientChannel::connect(addr, id, net_cfg()).expect("worker joins");
                // Workers rebuild their state from the Welcome blob alone —
                // the single-source-of-truth path the binaries rely on.
                let parsed: ExperimentConfig =
                    serde_json::from_str(channel.welcome_blob()).expect("blob parses");
                let (mut client, interceptor) = build_client(&parsed, id);
                run_federated_client(&mut channel, &mut client, interceptor.as_ref())
                    .expect("worker session completes")
            })
        })
        .collect();
    transport.wait_for_clients().expect("all workers join");
    let served = run_served_experiment(cfg, Box::new(transport));
    let reports = handles.into_iter().map(|h| h.join().expect("worker thread")).collect();
    let wire = wire_log.lock().clone();
    (served, reports, wire)
}
