//! The service layers under open-loop load, probed from the traced run of
//! `congest-mix`: an in-process `dcl_serve` (`ServiceConfig::default()`,
//! 2 workers) on one connection, fed a seeded request mix.
//!
//! Requests arrive on a seeded Poisson schedule at fixed rates, whether or
//! not earlier ones have been answered. A sender thread writes each request
//! when it is due and a receiver thread files the responses, so latency is
//! timed from the *due* time and a stall shows up in every request queued
//! behind it. The probe measures a nominal rate below the knee, then a
//! ladder of rates (the highest rate meeting the latency limit without a
//! growing backlog), then a closed-loop `ServiceClient` pass that splits
//! each served request into direct execution and service overhead.
//!
//! This was the `service-open` workload; on a shared 2-vCPU virtual
//! machine its end-to-end figures swung with co-tenant load
//! far beyond any usable regression bound, so it reports per-layer figures
//! only.

use crate::instances::{Class, Instance, Spec};
use crate::metrics::Values;
use crate::stats::{median, mix, quantile, unit};
use crate::trace::Tracer;
use crate::{table, Scale};
use dcl_runner::{run_protected, Report, RunError};
use dcl_service::proto::{
    check_hello, decode_response, encode_goodbye, encode_hello, encode_request, encode_response,
};
use dcl_service::{
    execute_request, outcome_matches_direct, Reject, Request, RequestLimits, Response, Server,
    ServerHandle, ServiceClient, ServiceConfig, ServiceError,
};
use dcl_sim::transport::FrameKind;
use dcl_sim::{ExecConfig, FrameReader};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The nominal rate, in requests per second: well below the knee, where
/// `service.op_ms.*` and the generator lag are measured.
pub const NOMINAL_RPS: f64 = 200.0;

/// The fixed rates probed for `service.max_rate_rps`, ascending.
pub const LADDER_RPS: &[f64] = &[
    400.0, 600.0, 800.0, 850.0, 900.0, 950.0, 1000.0, 1050.0, 1100.0, 1150.0, 1200.0, 1300.0,
    1400.0, 1600.0, 1800.0, 2000.0,
];

/// The ladder stops after this many consecutive rates miss the limit.
const LADDER_MISSES: usize = 2;

/// The latency limit on the p90 latency a ladder rate must meet.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// How late (p90) the generator may send at the nominal rate before the
/// run is marked incorrect.
pub const LAG_BOUND_MS: f64 = 5.0;

/// How long the receiver waits for stragglers after the last request.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// The request mix: every servable scenario on sparse graphs of 8–24
/// nodes, each scenario's sizes chosen so one direct run takes about
/// 0.2–2 ms.
fn specs(scale: Scale) -> Vec<Spec> {
    let classes = [
        Class::Gnp(4),
        Class::Expander(4),
        Class::PowerLaw(3),
        Class::RandomRegular(3),
    ];
    table(
        &[
            ("congest", 8, 24),
            ("decomp", 8, 24),
            ("delta", 8, 24),
            ("clique", 8, 10),
            ("mpc-linear", 8, 12),
            ("mpc-sublinear", 8, 16),
        ],
        &classes,
        192,
        scale,
    )
}

/// A running server with one handshaken raw connection.
struct Connection {
    handle: ServerHandle,
    stream: TcpStream,
    reader: FrameReader,
}

fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// Reads the next complete frame, blocking.
fn next_frame(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    deadline: Instant,
) -> Result<dcl_sim::transport::RawFrame, String> {
    let mut buf = [0u8; 1 << 16];
    loop {
        if let Some(frame) = reader.next_frame().map_err(|e| e.to_string())? {
            return Ok(frame);
        }
        if Instant::now() > deadline {
            return Err("timed out waiting for a frame".to_string());
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(k) => reader.push(&buf[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

impl Connection {
    fn start() -> Result<Connection, String> {
        let server = Server::bind(ServiceConfig::default()).map_err(io_err("bind"))?;
        let addr = server.local_addr().map_err(io_err("local_addr"))?;
        let handle = server.start();
        let mut stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
        stream.set_nodelay(true).map_err(io_err("nodelay"))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(io_err("read timeout"))?;
        let mut hello = Vec::new();
        encode_hello(&mut hello);
        stream.write_all(&hello).map_err(io_err("hello"))?;
        let mut reader = FrameReader::new();
        let frame = next_frame(
            &mut stream,
            &mut reader,
            Instant::now() + Duration::from_secs(10),
        )?;
        check_hello(&frame).map_err(|e| e.to_string())?;
        Ok(Connection {
            handle,
            stream,
            reader,
        })
    }

    /// Says goodbye and waits for the server's drain-complete goodbye;
    /// returns the still-running server.
    fn close(mut self) -> Result<ServerHandle, String> {
        let mut bye = Vec::new();
        encode_goodbye(&mut bye);
        self.stream.write_all(&bye).map_err(io_err("goodbye"))?;
        let deadline = Instant::now() + DRAIN_LIMIT;
        loop {
            let frame = next_frame(&mut self.stream, &mut self.reader, deadline)?;
            if frame.kind == FrameKind::EndRound {
                break;
            }
        }
        Ok(self.handle)
    }
}

/// One request's life on the open loop.
#[derive(Debug, Clone)]
struct Sample {
    template: usize,
    due: Instant,
    /// When the generator started sending (lag = `woke - due`).
    woke: Instant,
    /// When the request's bytes were written.
    sent: Instant,
    done: Option<Instant>,
    outcome: Option<Result<dcl_runner::WireReport, Reject>>,
}

/// What one fixed-rate phase measured.
#[derive(Debug, Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    attempted: u64,
    busy: u64,
    timed_out: u64,
    mismatches: u64,
    /// p90 latency of the last quarter of requests (backlog check).
    tail_p90_ms: f64,
}

impl Phase {
    /// Whether the rate meets the latency limit without a growing backlog;
    /// refused or lost requests count as missing the limit.
    fn meets_limit(&self) -> bool {
        let mut all = self.latencies_ms.clone();
        all.resize(self.attempted as usize, f64::INFINITY);
        quantile_inf(&all, 0.9) <= LATENCY_LIMIT_MS && self.tail_p90_ms <= LATENCY_LIMIT_MS
    }
}

/// Quantile that tolerates infinite entries (misses).
fn quantile_inf(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// A seeded Poisson schedule of `duration` at `rate`: offsets from the
/// phase start and the template each arrival uses.
fn schedule(seed: u64, rate: f64, duration: Duration, templates: usize) -> Vec<(Duration, usize)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut k = 0u64;
    loop {
        t += -(1.0 - unit(seed, 2 * k)).ln() / rate;
        if t >= duration.as_secs_f64() {
            return out;
        }
        let template = (mix(seed, 2 * k + 1) % templates as u64) as usize;
        out.push((Duration::from_secs_f64(t), template));
        k += 1;
    }
}

/// Drives one open-loop phase over the connection.
fn open_loop(
    conn: &mut Connection,
    templates: &[Request],
    direct: &[Result<Report, RunError>],
    arrivals: &[(Duration, usize)],
    next_id: &mut u64,
    tr: &mut Tracer,
) -> Result<Phase, String> {
    let first_id = *next_id;
    *next_id += arrivals.len() as u64;
    let mut rx_stream = conn.stream.try_clone().map_err(io_err("clone"))?;
    let reader = std::mem::take(&mut conn.reader);
    let start = Instant::now() + Duration::from_millis(5);
    let expected = arrivals.len();
    // Responses still missing this long after the last due time are lost.
    let give_up = start + arrivals.last().map_or(Duration::ZERO, |a| a.0) + DRAIN_LIMIT;
    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut reader = reader;
            let mut got: Vec<(u64, Instant, Result<dcl_runner::WireReport, Reject>)> =
                Vec::with_capacity(expected);
            let mut err = None;
            while got.len() < expected && Instant::now() < give_up {
                match next_frame(&mut rx_stream, &mut reader, give_up) {
                    Ok(frame) => match decode_response(&frame) {
                        Ok(Response { id, outcome }) => got.push((id, Instant::now(), outcome)),
                        Err(e) => {
                            err = Some(e.to_string());
                            break;
                        }
                    },
                    Err(_) if Instant::now() >= give_up => break,
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            (got, reader, err)
        });
        let mut sent = Vec::with_capacity(expected);
        let mut buf = Vec::new();
        let mut write_err = None;
        for (k, &(offset, template)) in arrivals.iter().enumerate() {
            let due = start + offset;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let left = due - now;
                if left > Duration::from_micros(300) {
                    std::thread::sleep(left - Duration::from_micros(200));
                } else {
                    std::hint::spin_loop();
                }
            }
            let woke = Instant::now();
            let mut request = templates[template].clone();
            request.id = first_id + k as u64;
            buf.clear();
            encode_request(&request, &mut buf);
            if let Err(e) = conn.stream.write_all(&buf) {
                write_err = Some(format!("write: {e}"));
                break;
            }
            sent.push((due, woke, Instant::now()));
        }
        let (got, reader, err) = receiver.join().expect("receiver thread panicked");
        conn.reader = reader;
        ((sent, write_err), (got, err))
    });
    let ((sent, write_err), (got, read_err)) = (sent, received);
    if let Some(e) = write_err.or(read_err) {
        return Err(e);
    }
    let mut samples: Vec<Sample> = arrivals
        .iter()
        .zip(&sent)
        .map(|(&(_, template), &(due, woke, sent))| Sample {
            template,
            due,
            woke,
            sent,
            done: None,
            outcome: None,
        })
        .collect();
    for (id, at, outcome) in got {
        let k = id
            .checked_sub(first_id)
            .map(|k| k as usize)
            .filter(|&k| k < samples.len())
            .ok_or_else(|| format!("response to unknown id {id}"))?;
        samples[k].done = Some(at);
        samples[k].outcome = Some(outcome);
    }
    let mut phase = Phase::default();
    let mut tail = Vec::new();
    let quarter = samples.len() * 3 / 4;
    for (k, s) in samples.iter().enumerate() {
        phase.attempted += 1;
        phase
            .lags_ms
            .push(s.woke.duration_since(s.due).as_secs_f64() * 1e3);
        if let Some(done) = s.done {
            let op = first_id + k as u64;
            let root = tr.record("op", op, None, s.due, done);
            tr.record("loadgen.lag", op, root, s.due, s.woke);
            tr.record("client.send", op, root, s.woke, s.sent);
            tr.record("service.roundtrip", op, root, s.sent, done);
        }
        let in_tail = k >= quarter;
        // Refused or lost requests miss the limit.
        let served = match &s.outcome {
            Some(Ok(report)) => Some(Ok(report.clone())),
            Some(Err(Reject::Busy { .. })) => {
                phase.busy += 1;
                None
            }
            Some(Err(Reject::TimedOut { .. })) => {
                phase.timed_out += 1;
                None
            }
            Some(Err(reject)) => Some(Err(ServiceError::Rejected(reject.clone()))),
            None => None,
        };
        let Some(served) = served else {
            if in_tail {
                tail.push(f64::INFINITY);
            }
            continue;
        };
        let done = s.done.expect("answered requests have a completion time");
        if outcome_matches_direct(&served, &direct[s.template])
            && served.as_ref().is_ok_and(|r| r.proper)
        {
            let ms = done.duration_since(s.due).as_secs_f64() * 1e3;
            phase.latencies_ms.push(ms);
            if in_tail {
                tail.push(ms);
            }
        } else {
            phase.mismatches += 1;
        }
    }
    phase.tail_p90_ms = quantile_inf(&tail, 0.9);
    Ok(phase)
}

/// The closed-loop split of served requests: per request a direct
/// `execute_request` and a served `ServiceClient::color`, each its own
/// span.
fn closed_probe(
    addr: std::net::SocketAddr,
    instances: &[Instance],
    templates: &[Request],
    direct: &[Result<Report, RunError>],
    budget: Duration,
    tr: &mut Tracer,
    v: &mut Values,
) -> Result<bool, String> {
    let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
    let limits = RequestLimits::default();
    let exec = ExecConfig::default();
    let mut overhead = Vec::new();
    let mut direct_ms = Vec::new();
    let mut first_pass = None;
    let mut correct = true;
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed() < budget {
        for (i, inst) in instances.iter().enumerate() {
            let op = pass * instances.len() as u64 + i as u64;
            tr.span("probe", op, |tr| {
                let t = Instant::now();
                let local = tr.span("service.direct", op, |_| {
                    execute_request(&templates[i], &limits)
                });
                let d = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                let served = tr.span("client.color", op, |_| {
                    client.color(&inst.graph, inst.spec.scenario, &exec)
                });
                let s = t.elapsed().as_secs_f64() * 1e3;
                correct &= local.is_ok() && outcome_matches_direct(&served, &direct[i]);
                direct_ms.push(d);
                overhead.push(s - d);
            });
        }
        if pass == 0 {
            first_pass = Some(client.stats());
        }
        pass += 1;
    }
    let stats = first_pass.expect("one pass ran");
    client.close().map_err(|e| e.to_string())?;
    v.insert("client.bytes_sent", stats.bytes_sent as f64);
    v.insert("client.bytes_received", stats.bytes_received as f64);
    v.insert("service.direct_ms", median(&direct_ms));
    v.insert("service.overhead_ms.p50", quantile(&overhead, 0.5));
    v.insert("service.overhead_ms.p90", quantile(&overhead, 0.9));
    Ok(correct)
}

/// Wire framing of each instance's response: encode and decode time per
/// call, and the request bytes of one pass.
fn wire_probe(
    templates: &[Request],
    direct: &[Result<Report, RunError>],
    tr: &mut Tracer,
    v: &mut Values,
) {
    const CALLS: u32 = 200;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut request_bytes = 0;
    for (i, (request, report)) in templates.iter().zip(direct).enumerate() {
        let mut buf = Vec::new();
        encode_request(request, &mut buf);
        request_bytes += buf.len();
        let Ok(report) = report else { continue };
        let response = Response {
            id: request.id,
            outcome: Ok(report.into()),
        };
        let mut frame = Vec::new();
        let t = Instant::now();
        tr.span("wire.encode_response", i as u64, |_| {
            for _ in 0..CALLS {
                frame.clear();
                encode_response(std::hint::black_box(&response), &mut frame);
            }
        });
        enc.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS));
        let mut reader = FrameReader::new();
        reader.push(&frame);
        let raw = reader.next_frame().ok().flatten().expect("a whole frame");
        let t = Instant::now();
        tr.span("wire.decode_response", i as u64, |_| {
            for _ in 0..CALLS {
                std::hint::black_box(decode_response(std::hint::black_box(&raw)).ok());
            }
        });
        dec.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS));
    }
    v.insert("wire.report_encode_us", median(&enc));
    v.insert("wire.report_decode_us", median(&dec));
    v.insert("proto.request_bytes", request_bytes as f64);
}

/// Salt separating the request mix's seed stream from the workload's.
const MIX_SALT: u64 = 0x5e41;

/// Probes the service layers for `budget`: nominal phase, rate ladder,
/// closed-loop split and wire framing. Returns whether every served
/// outcome matched its direct run and the generator kept up.
///
/// # Errors
///
/// If the server cannot start, the connection breaks, or a generated
/// request cannot be colored directly.
pub fn probe(
    seed: u64,
    scale: Scale,
    min_ops: usize,
    budget: Duration,
    tr: &mut Tracer,
    v: &mut Values,
) -> Result<bool, String> {
    let exec = ExecConfig::default();
    let seed = mix(seed, MIX_SALT);
    let (instances, _) = crate::generate(&specs(scale), seed, 0, tr);
    let templates: Vec<Request> = instances
        .iter()
        .map(|i| Request::for_graph(0, i.spec.scenario, &i.graph, &exec))
        .collect();
    let mut conn = tr.span("service.start", 0, |_| Connection::start())?;

    // The direct outcome of every template: what each response must match.
    let mut direct = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        let scenario = dcl_service::build_scenario(inst.spec.scenario).expect("registered");
        let r = tr.span("service.reference", i as u64, |_| {
            run_protected(scenario.as_ref(), &inst.graph, &exec)
        });
        match &r {
            Ok(report) if report.valid() => {}
            other => {
                return Err(format!(
                    "request {i} ({:?}) has no valid direct coloring: {other:?}",
                    inst.spec
                ))
            }
        }
        direct.push(r);
    }

    let mut next_id = 0u64;
    let mut correct = true;
    let arrivals = schedule(seed, NOMINAL_RPS, budget.mul_f64(0.4), templates.len());
    let nominal = open_loop(&mut conn, &templates, &direct, &arrivals, &mut next_id, tr)?;
    let lag_p90 = quantile(&nominal.lags_ms, 0.9);
    correct &= lag_p90 <= LAG_BOUND_MS && nominal.mismatches == 0;

    // Rate ladder, ascending, until LADDER_MISSES rates in a row miss the
    // limit; a single transient miss below the knee does not end it.
    let mut off = Tracer::new(false);
    let mut misses = 0;
    let mut max_rate = 0.0;
    let (mut busy, mut timed_out) = (0, 0);
    let step = budget.mul_f64(0.4) / 12;
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        let time = step.max(Duration::from_secs_f64(1.5 * min_ops as f64 / rate));
        let arrivals = schedule(mix(seed, k as u64 + 1), rate, time, templates.len());
        let phase = open_loop(
            &mut conn,
            &templates,
            &direct,
            &arrivals,
            &mut next_id,
            &mut off,
        )?;
        correct &= phase.mismatches == 0;
        busy += phase.busy;
        timed_out += phase.timed_out;
        if phase.meets_limit() {
            max_rate = rate;
            misses = 0;
        } else {
            misses += 1;
            if misses == LADDER_MISSES {
                break;
            }
        }
    }
    let mut server = conn.close()?;
    correct &= closed_probe(
        server.addr(),
        &instances,
        &templates,
        &direct,
        budget.mul_f64(0.2),
        tr,
        v,
    )?;
    wire_probe(&templates, &direct, tr, v);
    server.shutdown();

    v.insert("service.op_ms.p50", quantile(&nominal.latencies_ms, 0.5));
    v.insert("service.op_ms.p90", quantile(&nominal.latencies_ms, 0.9));
    v.insert("service.op_ms.p99", quantile(&nominal.latencies_ms, 0.99));
    v.insert("service.max_rate_rps", max_rate);
    v.insert("service.busy", busy as f64);
    v.insert("service.timed_out", timed_out as f64);
    v.insert("loadgen.lag_ms.p90", lag_p90);
    Ok(correct)
}
