//! `gcr-chaos` — the fault-injection campaign harness.
//!
//! Spawns a real `gcr-serve` child process (faults armed via `GCR_FAULT`
//! in its environment, so injection cannot leak into this driver), runs
//! a seeded randomized client campaign against it, shuts it down, then
//! replays a fault-free campaign against the *same* persistent cache to
//! prove the store self-healed and every answer is byte-identical across
//! the fault boundary. Asserted throughout:
//!
//! * the server process never dies (faults fail requests, not the daemon);
//! * no request hangs past its deadline + slack;
//! * non-faulted requests are byte-deterministic within and across phases;
//! * a corrupted cache is quarantined and recomputed transparently.
//!
//! Prints a JSON verdict; exits non-zero (after writing
//! `chaos_repro.txt`) when any invariant broke. The whole run is
//! reproducible from `(--seed, --fault, --fault-seed)`.
//!
//! Usage: `gcr-chaos [--seed N] [--requests N] [--budget-ms N]
//! [--deadline-ms N] [--fault SPEC] [--fault-seed N] [--serve-bin PATH]
//! [--dir PATH]`

use gcr_bench::cli::Flags;
use gcr_cli::report::Json;
use gcr_serve::chaos::{
    fetch_report, run_campaign, send_shutdown, ChaosConfig, ChaosOutcome, Expectations,
};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const DEFAULT_FAULT: &str =
    "panic_in_pass=0.08,slow_sim=0.05,torn_cache_write,truncated_frame=0.08,io_error=0.05";

fn main() {
    let flags = Flags::from_env();
    let seed = flags.num("--seed", 1);
    let requests = flags.num("--requests", 120);
    let budget = Duration::from_millis(flags.num("--budget-ms", 60_000));
    let deadline_ms = flags.num("--deadline-ms", 10_000);
    let fault = flags.value("--fault").unwrap_or_else(|| DEFAULT_FAULT.into());
    let fault_seed = flags.num("--fault-seed", seed);
    let serve_bin = flags
        .value("--serve-bin")
        .or_else(|| std::env::var("GCR_SERVE_BIN").ok())
        .unwrap_or_else(|| sibling("gcr-serve"));
    let dir = flags
        .value("--dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("gcr-chaos-{}", std::process::id())));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let socket = dir.join("serve.sock").to_string_lossy().into_owned();
    let cache = dir.join("cache.txt").to_string_lossy().into_owned();

    let mut expected = Expectations::new();
    let mut violations: Vec<String> = Vec::new();

    // Phase A: faults armed. Strict only when the user disabled them all.
    let cfg_a = ChaosConfig {
        socket: socket.clone(),
        seed,
        requests,
        budget: budget / 2,
        deadline_ms,
        strict: fault.is_empty(),
    };
    let (outcome_a, report_a) = phase(
        &serve_bin,
        &socket,
        &cache,
        &fault,
        fault_seed,
        &cfg_a,
        &mut expected,
        &mut violations,
    );

    // Phase B: fault-free, same cache file, same workload seed. The store
    // may have been torn by phase A's flush; it must self-heal and every
    // answer must match phase A byte for byte.
    let cfg_b = ChaosConfig { budget: budget / 2, strict: true, ..cfg_a.clone() };
    let (outcome_b, report_b) =
        phase(&serve_bin, &socket, &cache, "", 0, &cfg_b, &mut expected, &mut violations);

    let passed = violations.is_empty() && outcome_a.passed() && outcome_b.passed();
    let verdict = Json::O(vec![
        ("schema", Json::S("gcr-chaos-verdict/v1".into())),
        ("seed", Json::U(seed)),
        ("fault", Json::S(fault.clone())),
        ("fault_seed", Json::U(fault_seed)),
        ("passed", Json::Bool(passed)),
        ("faulted", outcome_json(&outcome_a)),
        ("fault_free", outcome_json(&outcome_b)),
        ("harness_violations", Json::A(violations.iter().cloned().map(Json::S).collect())),
        ("server_report_faulted", parse_or_null(report_a)),
        ("server_report_fault_free", parse_or_null(report_b)),
    ]);
    println!("{}", verdict.render());

    if !passed {
        let mut repro = String::new();
        repro.push_str(&format!(
            "gcr-chaos failure\n\nreproduce with:\n  gcr-chaos --seed {seed} --requests {requests} \
             --deadline-ms {deadline_ms} --fault '{fault}' --fault-seed {fault_seed}\n\nviolations:\n"
        ));
        for v in violations.iter().chain(&outcome_a.violations).chain(&outcome_b.violations) {
            repro.push_str(&format!("  - {v}\n"));
        }
        let path = "chaos_repro.txt";
        if std::fs::write(path, &repro).is_ok() {
            eprintln!("gcr-chaos: reproducer written to {path}");
        }
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one spawn → campaign → shutdown cycle, appending any
/// process-lifecycle violations.
#[allow(clippy::too_many_arguments)]
fn phase(
    serve_bin: &str,
    socket: &str,
    cache: &str,
    fault: &str,
    fault_seed: u64,
    cfg: &ChaosConfig,
    expected: &mut Expectations,
    violations: &mut Vec<String>,
) -> (ChaosOutcome, Option<String>) {
    let label = if fault.is_empty() { "fault-free" } else { "faulted" };
    let mut child = spawn_server(serve_bin, socket, cache, fault, fault_seed);
    let outcome = run_campaign(cfg, expected);
    let report = fetch_report(socket);
    // Liveness of the *process*: faults must only ever fail requests.
    if let Ok(Some(status)) = child.try_wait() {
        violations.push(format!("{label}: server process died during the campaign: {status}"));
        return (outcome, report);
    }
    if !send_shutdown(socket) {
        violations.push(format!("{label}: server refused the shutdown request"));
    }
    match wait_child(&mut child, Duration::from_secs(20)) {
        Some(status) if status.success() => {}
        Some(status) => violations.push(format!("{label}: server exited with {status}")),
        None => {
            violations.push(format!("{label}: server did not exit within 20s of shutdown"));
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    (outcome, report)
}

fn spawn_server(bin: &str, socket: &str, cache: &str, fault: &str, fault_seed: u64) -> Child {
    let mut cmd = Command::new(bin);
    cmd.arg("--socket")
        .arg(socket)
        .env("GCR_MEASURE_CACHE", cache)
        .env_remove("GCR_FAULT")
        .env_remove("GCR_FAULT_SEED")
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if !fault.is_empty() {
        cmd.env("GCR_FAULT", fault)
            .env("GCR_FAULT_SEED", fault_seed.to_string())
            // Long enough to be a real stall, short enough for CI budgets.
            .env("GCR_FAULT_SLEEP_MS", "400");
    }
    cmd.spawn().unwrap_or_else(|e| panic!("could not spawn {bin}: {e}"))
}

fn wait_child(child: &mut Child, timeout: Duration) -> Option<ExitStatus> {
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if start.elapsed() > timeout => return None,
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => return None,
        }
    }
}

/// `gcr-serve` sits next to this binary in the cargo target dir.
fn sibling(name: &str) -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join(name)))
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_else(|| name.to_string())
}

fn outcome_json(o: &ChaosOutcome) -> Json {
    let errors: Vec<(&'static str, Json)> =
        o.errors.iter().map(|(&k, &v)| (k, Json::U(v))).collect();
    Json::O(vec![
        ("issued", Json::U(o.issued)),
        ("ok", Json::U(o.ok)),
        ("errors", Json::O(errors)),
        ("reconnects", Json::U(o.reconnects)),
        ("determinism_checked", Json::U(o.determinism_checked)),
        ("violations", Json::A(o.violations.iter().cloned().map(Json::S).collect())),
    ])
}

fn parse_or_null(report: Option<String>) -> Json {
    report.and_then(|t| Json::parse(&t).ok()).unwrap_or(Json::Null)
}
