//! `dproc-shell` — an interactive (and scriptable) console for driving a
//! simulated dproc cluster: create nodes, advance time, read `/proc`,
//! write control files, launch workloads, crash nodes.
//!
//! ```text
//! cargo run --release -p dproc-bench --bin dproc_shell
//! dproc> cluster 3 alan maui etna
//! dproc> run 5
//! dproc> cat maui cluster/alan/cpu
//! dproc> ctl alan etna period cpu 2
//! dproc> linpack etna 4
//! dproc> run 60
//! dproc> stats
//! ```
//!
//! Commands also stream from stdin, so sessions are scriptable:
//! `printf 'cluster 2\nrun 10\nstats\n' | cargo run ... --bin dproc_shell`.

use std::io::{self, BufRead, Write};

use dproc::cluster::{ClusterConfig, ClusterSim};
use simcore::SimDur;
use simnet::NodeId;

/// One parsed shell command.
#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    Cluster {
        n: usize,
        names: Vec<String>,
    },
    Run {
        seconds: f64,
    },
    Cat {
        node: String,
        path: String,
    },
    Ls {
        node: String,
        path: Option<String>,
    },
    Tree {
        node: String,
    },
    Ctl {
        node: String,
        target: String,
        text: String,
    },
    Linpack {
        node: String,
        threads: usize,
    },
    Iperf {
        from: String,
        to: String,
        mbps: f64,
    },
    Kill {
        node: String,
    },
    Revive {
        node: String,
    },
    Partition {
        a: String,
        b: String,
    },
    Heal {
        a: String,
        b: String,
    },
    Loss {
        prob: f64,
    },
    Faults,
    Threads {
        n: usize,
    },
    Racks {
        size: usize,
    },
    Topo,
    Lint {
        source: String,
    },
    Detlint,
    Credits {
        node: String,
    },
    Overload,
    Stats,
    Latency,
    Help,
    Quit,
    Nothing,
}

fn parse(line: &str) -> Result<Cmd, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Cmd::Nothing);
    }
    let mut parts = line.split_whitespace();
    let head = parts.next().expect("non-empty line");
    let rest: Vec<&str> = parts.collect();
    match head {
        "cluster" => {
            let n: usize = rest
                .first()
                .ok_or("usage: cluster <n> [names...]")?
                .parse()
                .map_err(|_| "cluster size must be a number".to_string())?;
            if n == 0 {
                return Err("cluster needs at least one node".into());
            }
            let names: Vec<String> = rest[1..].iter().map(ToString::to_string).collect();
            if !names.is_empty() && names.len() != n {
                return Err(format!("expected {n} names, got {}", names.len()));
            }
            Ok(Cmd::Cluster { n, names })
        }
        "run" => {
            let seconds: f64 = rest
                .first()
                .ok_or("usage: run <seconds>")?
                .parse()
                .map_err(|_| "run takes a number of seconds".to_string())?;
            if seconds <= 0.0 {
                return Err("run duration must be positive".into());
            }
            Ok(Cmd::Run { seconds })
        }
        "cat" => match rest[..] {
            [node, path] => Ok(Cmd::Cat {
                node: node.into(),
                path: path.into(),
            }),
            _ => Err("usage: cat <node> <path>".into()),
        },
        "ls" => match rest[..] {
            [node] => Ok(Cmd::Ls {
                node: node.into(),
                path: None,
            }),
            [node, path] => Ok(Cmd::Ls {
                node: node.into(),
                path: Some(path.into()),
            }),
            _ => Err("usage: ls <node> [path]".into()),
        },
        "tree" => match rest[..] {
            [node] => Ok(Cmd::Tree { node: node.into() }),
            _ => Err("usage: tree <node>".into()),
        },
        "ctl" => {
            if rest.len() < 3 {
                return Err("usage: ctl <node> <target> <control command...>".into());
            }
            Ok(Cmd::Ctl {
                node: rest[0].into(),
                target: rest[1].into(),
                text: rest[2..].join(" "),
            })
        }
        "linpack" => match rest[..] {
            [node, threads] => Ok(Cmd::Linpack {
                node: node.into(),
                threads: threads
                    .parse()
                    .map_err(|_| "thread count must be a number".to_string())?,
            }),
            _ => Err("usage: linpack <node> <threads>".into()),
        },
        "iperf" => match rest[..] {
            [from, to, mbps] => Ok(Cmd::Iperf {
                from: from.into(),
                to: to.into(),
                mbps: mbps
                    .parse()
                    .map_err(|_| "rate must be a number of Mbps".to_string())?,
            }),
            _ => Err("usage: iperf <from> <to> <mbps>".into()),
        },
        "kill" => match rest[..] {
            [node] => Ok(Cmd::Kill { node: node.into() }),
            _ => Err("usage: kill <node>".into()),
        },
        "revive" => match rest[..] {
            [node] => Ok(Cmd::Revive { node: node.into() }),
            _ => Err("usage: revive <node>".into()),
        },
        "partition" => match rest[..] {
            [a, b] => Ok(Cmd::Partition {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("usage: partition <a> <b>".into()),
        },
        "heal" => match rest[..] {
            [a, b] => Ok(Cmd::Heal {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("usage: heal <a> <b>".into()),
        },
        "loss" => match rest[..] {
            [prob] => Ok(Cmd::Loss {
                prob: prob
                    .parse()
                    .map_err(|_| "loss takes a probability 0..=1".to_string())?,
            }),
            _ => Err("usage: loss <probability>".into()),
        },
        "faults" => Ok(Cmd::Faults),
        "threads" => match rest[..] {
            [n] => {
                let n: usize = n
                    .parse()
                    .map_err(|_| "threads takes a worker count".to_string())?;
                if n == 0 {
                    return Err("threads needs at least one worker".into());
                }
                Ok(Cmd::Threads { n })
            }
            _ => Err("usage: threads <n>".into()),
        },
        "racks" => match rest[..] {
            [size] => {
                if size == "off" {
                    return Ok(Cmd::Racks { size: 0 });
                }
                Ok(Cmd::Racks {
                    size: size
                        .parse()
                        .map_err(|_| "racks takes a rack size (or `off`)".to_string())?,
                })
            }
            _ => Err("usage: racks <size|off>".into()),
        },
        "topo" => Ok(Cmd::Topo),
        "lint" => {
            if rest.is_empty() {
                return Err(
                    "usage: lint <filter source>  (e.g. lint { output[0] = input[LOADAVG]; })"
                        .into(),
                );
            }
            Ok(Cmd::Lint {
                source: rest.join(" "),
            })
        }
        "detlint" => Ok(Cmd::Detlint),
        "credits" => match rest[..] {
            [node] => Ok(Cmd::Credits { node: node.into() }),
            _ => Err("usage: credits <node>".into()),
        },
        "overload" => Ok(Cmd::Overload),
        "stats" => Ok(Cmd::Stats),
        "latency" => Ok(Cmd::Latency),
        "help" | "?" => Ok(Cmd::Help),
        "quit" | "exit" | "q" => Ok(Cmd::Quit),
        other => Err(format!("unknown command `{other}` (try `help`)")),
    }
}

const HELP: &str = "\
cluster <n> [names...]      create an n-node monitored cluster
run <seconds>               advance simulated time
cat <node> <path>           read a /proc entry on a node
ls <node> [path]            list a /proc directory
tree <node>                 render a node's whole /proc tree
ctl <node> <target> <cmd>   write a control command (period/delta/above/
                            below/range/and/clear/window/filter/nofilter)
linpack <node> <threads>    start linpack threads on a node
iperf <from> <to> <mbps>    start a UDP flood between nodes
kill <node>                 crash a node
revive <node>               restart a crashed node (rejoins + resyncs)
partition <a> <b>           sever the path between two nodes
heal <a> <b>                remove a partition
loss <probability>          drop each delivery with this probability
faults                      active faults and drop/detection counters
threads <n>                 worker shards for the next cluster (1 = serial)
racks <size|off>            rack size for the next cluster (off = flat star)
topo                        fabric shape, rack membership, digest flow
lint <filter source>        run the static verifier on an E-code filter
detlint                     replay-safety scan of the workspace sources
credits <node>              a publisher's credit windows, outboxes, chokes
overload                    ladder levels, shed/stall counters, link drops
stats                       per-node d-mon counters
latency                     monitoring latency summary
quit                        leave";

struct Shell {
    sim: Option<ClusterSim>,
    threads: usize,
    /// Rack size for the next `cluster` command; 0 means flat star.
    rack_size: usize,
}

impl Shell {
    fn new() -> Self {
        Shell {
            sim: None,
            threads: 1,
            rack_size: 0,
        }
    }

    /// Live fault injection reaches into the world through `parts()`,
    /// which only the serial driver exposes.
    fn serial_sim(&mut self, what: &str) -> Result<&mut ClusterSim, String> {
        let sim = self.sim.as_mut().ok_or("no cluster yet")?;
        if sim.threads() > 1 {
            return Err(format!(
                "{what} needs the serial driver — run `threads 1` and rebuild the cluster"
            ));
        }
        Ok(sim)
    }

    fn node(&self, name: &str) -> Result<NodeId, String> {
        let sim = self
            .sim
            .as_ref()
            .ok_or("no cluster yet (try `cluster 3`)")?;
        sim.world()
            .node_by_name(name)
            .or_else(|| {
                name.parse::<usize>()
                    .ok()
                    .filter(|&i| i < sim.world().len())
                    .map(NodeId)
            })
            .ok_or_else(|| format!("unknown node `{name}`"))
    }

    /// Execute one command. `Ok(None)` means quit; `Err` is a user error
    /// to report (the shell keeps running).
    fn exec(&mut self, cmd: Cmd) -> Result<Option<String>, String> {
        self.exec_inner(cmd).map(|out| out.map(|s| s.to_string()))
    }

    fn exec_inner(&mut self, cmd: Cmd) -> Result<Option<String>, String> {
        match cmd {
            Cmd::Nothing => Ok(Some(String::new())),
            Cmd::Help => Ok(Some(HELP.to_string())),
            Cmd::Quit => Ok(None),
            Cmd::Cluster { n, names } => {
                let mut cfg = if names.is_empty() {
                    ClusterConfig::new(n)
                } else {
                    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                    ClusterConfig::try_named(&refs).map_err(|e| e.to_string())?
                };
                if self.rack_size > 0 {
                    cfg = cfg.racks(self.rack_size);
                }
                let mut sim = ClusterSim::new(cfg);
                sim.set_threads(self.threads);
                sim.start();
                let names: Vec<String> = sim.world().hosts.iter().map(|h| h.name.clone()).collect();
                let shards = sim.shards();
                let n_racks = sim.world().placement.n_racks();
                self.sim = Some(sim);
                let mut up = String::from("cluster up");
                if n_racks > 1 {
                    up.push_str(&format!(" in {n_racks} racks"));
                }
                if shards > 1 {
                    up.push_str(&format!(" on {shards} shards"));
                }
                Ok(Some(format!("{up}: {}", names.join(", "))))
            }
            Cmd::Run { seconds } => match &mut self.sim {
                Some(sim) => {
                    sim.run_for(SimDur::from_secs_f64(seconds));
                    Ok(Some(format!("t = {}", sim.now())))
                }
                None => Err("no cluster yet".into()),
            },
            Cmd::Cat { node, path } => {
                let id = self.node(&node)?;
                let sim = self.sim.as_ref().expect("checked");
                match sim.world().hosts[id.0].proc.read(&path) {
                    Ok(content) => Ok(Some(content.to_string())),
                    Err(e) => Err(format!("cat: {e}")),
                }
            }
            Cmd::Ls { node, path } => {
                let id = self.node(&node)?;
                let sim = self.sim.as_ref().expect("checked");
                let fs = &sim.world().hosts[id.0].proc;
                let entries = match path {
                    Some(p) => fs.list(&p).map_err(|e| format!("ls: {e}"))?,
                    None => fs.list_root(),
                };
                Ok(Some(entries.join("\n")))
            }
            Cmd::Tree { node } => {
                let id = self.node(&node)?;
                let sim = self.sim.as_ref().expect("checked");
                Ok(Some(sim.world().hosts[id.0].proc.render_tree()))
            }
            Cmd::Ctl { node, target, text } => {
                let id = self.node(&node)?;
                // Validate locally so typos surface immediately.
                if let Err(e) = dproc::control::Command::parse(&text) {
                    return Err(format!("ctl: {e}"));
                }
                let sim = self.sim.as_mut().expect("checked");
                // A target that names no control file is counted, not
                // written: the counter is how the write reports it.
                let errors = |s: &ClusterSim| s.world().dmons[id.0].stats.control_errors;
                let before = errors(sim);
                sim.write_control(id, &target, &text);
                if errors(sim) != before {
                    return Err("ctl: bad target".into());
                }
                Ok(Some(format!(
                    "queued for {target} (applies at its next poll)"
                )))
            }
            Cmd::Linpack { node, threads } => {
                let id = self.node(&node)?;
                let sim = self.sim.as_mut().expect("checked");
                sim.start_linpack(id, threads);
                Ok(Some(format!(
                    "{threads} linpack thread(s) running on {node}"
                )))
            }
            Cmd::Iperf { from, to, mbps } => {
                let f = self.node(&from)?;
                let t = self.node(&to)?;
                let sim = self.sim.as_mut().expect("checked");
                sim.start_iperf(f, t, mbps * 1e6);
                Ok(Some(format!("flooding {from} -> {to} at {mbps} Mbps")))
            }
            Cmd::Kill { node } => {
                let id = self.node(&node)?;
                let sim = self.sim.as_mut().expect("checked");
                sim.world_mut().kill_node(id);
                Ok(Some(format!("{node} is down")))
            }
            Cmd::Revive { node } => {
                let id = self.node(&node)?;
                let sim = self.serial_sim("revive")?;
                if sim.world().is_alive(id) {
                    return Err(format!("{node} is already alive"));
                }
                let (w, s) = sim.parts();
                w.revive_node(s, id);
                Ok(Some(format!(
                    "{node} is back (epoch {}), polls resume next period",
                    w.dmons[id.0].epoch()
                )))
            }
            Cmd::Partition { a, b } => {
                let ia = self.node(&a)?;
                let ib = self.node(&b)?;
                if ia == ib {
                    return Err("cannot partition a node from itself".into());
                }
                let sim = self.serial_sim("partition")?;
                let (w, s) = sim.parts();
                w.apply_fault(s, &simnet::FaultAction::Partition(ia, ib));
                Ok(Some(format!("{a} <-/-> {b}")))
            }
            Cmd::Heal { a, b } => {
                let ia = self.node(&a)?;
                let ib = self.node(&b)?;
                let sim = self.serial_sim("heal")?;
                let (w, s) = sim.parts();
                w.apply_fault(s, &simnet::FaultAction::Heal(ia, ib));
                Ok(Some(format!("{a} <---> {b}")))
            }
            Cmd::Loss { prob } => {
                if !(0.0..=1.0).contains(&prob) {
                    return Err("probability must be in 0..=1".into());
                }
                let sim = self.serial_sim("loss")?;
                let (w, s) = sim.parts();
                w.apply_fault(s, &simnet::FaultAction::Loss(prob));
                Ok(Some(format!("network-wide loss probability = {prob}")))
            }
            Cmd::Faults => match &self.sim {
                Some(sim) => {
                    let w = sim.world();
                    let mut out = String::new();
                    let parts = w.fault.partitions();
                    if parts.is_empty() {
                        out.push_str("partitions: none\n");
                    } else {
                        let list: Vec<String> = parts
                            .iter()
                            .map(|(a, b)| {
                                format!("{} <-/-> {}", w.hosts[a.0].name, w.hosts[b.0].name)
                            })
                            .collect();
                        out.push_str(&format!("partitions: {}\n", list.join(", ")));
                    }
                    out.push_str(&format!("loss probability: {}\n", w.fault.loss_prob()));
                    let fs = w.fault.stats;
                    out.push_str(&format!(
                        "drops: {} total ({} partition, {} loss, {} crash)\n",
                        fs.events_lost, fs.partition_drops, fs.loss_drops, fs.crash_drops
                    ));
                    out.push_str(
                        "node           gaps  hb_sent  hb_recv  hb_miss  suspected  evicted  resyncs\n",
                    );
                    for i in 0..w.len() {
                        let d = &w.dmons[i].stats;
                        out.push_str(&format!(
                            "{:<12} {:>6} {:>8} {:>8} {:>8} {:>10} {:>8} {:>8}\n",
                            w.hosts[i].name,
                            d.gaps_detected,
                            d.heartbeats_sent,
                            d.heartbeats_received,
                            d.heartbeats_missed,
                            d.nodes_suspected,
                            d.nodes_evicted,
                            d.resyncs,
                        ));
                    }
                    Ok(Some(out))
                }
                None => Err("no cluster yet".into()),
            },
            Cmd::Threads { n } => {
                self.threads = n;
                let note = if self.sim.is_some() {
                    " (applies when the next `cluster` is built)"
                } else {
                    ""
                };
                Ok(Some(format!("threads = {n}{note}")))
            }
            Cmd::Racks { size } => {
                self.rack_size = size;
                let note = if self.sim.is_some() {
                    " (applies when the next `cluster` is built)"
                } else {
                    ""
                };
                Ok(Some(if size == 0 {
                    format!("topology = flat star{note}")
                } else {
                    format!("topology = racks of {size}{note}")
                }))
            }
            Cmd::Topo => match &self.sim {
                Some(sim) => {
                    let w = sim.world();
                    let p = &w.placement;
                    if p.is_star() {
                        return Ok(Some(format!(
                            "flat star: {} node(s) on one switch, no aggregation tier",
                            w.len()
                        )));
                    }
                    let mut out = format!(
                        "hierarchical: {} nodes in {} racks behind a spine\n",
                        p.len(),
                        p.n_racks()
                    );
                    for (k, rack) in p.racks().enumerate() {
                        let agg = p.aggregator(k);
                        let members: Vec<&str> =
                            rack.range().map(|i| w.hosts[i].name.as_str()).collect();
                        let up = w.net.switch_uplink(k);
                        let down = w.net.switch_downlink(k);
                        out.push_str(&format!(
                            "rack {k}: aggregator {}; members: {}\n        spine up {} msgs ({} drops), down {} msgs ({} drops)\n",
                            w.hosts[agg.0].name,
                            members.join(", "),
                            up.messages(),
                            up.drops(),
                            down.messages(),
                            down.drops(),
                        ));
                    }
                    let sent: u64 = w.dmon_total(|s| s.digests_sent);
                    let recv: u64 = w.dmon_total(|s| s.digests_received);
                    let records: u64 = w.dmon_total(|s| s.digest_records);
                    out.push_str(&format!(
                        "digests: {sent} sent, {recv} received, {records} records"
                    ));
                    Ok(Some(out))
                }
                None => Err("no cluster yet".into()),
            },
            Cmd::Lint { source } => Ok(Some(lint_report(&source)?)),
            Cmd::Detlint => Ok(Some(detlint_report()?)),
            Cmd::Credits { node } => {
                let id = self.node(&node)?;
                let sim = self.sim.as_ref().expect("checked");
                let w = sim.world();
                let d = &w.dmons[id.0];
                let mut out = format!("{node} as publisher, per subscriber stream:\n");
                out.push_str("subscriber     credits  parked  choked\n");
                for i in 0..w.len() {
                    if i == id.0 {
                        continue;
                    }
                    let sub = NodeId(i);
                    out.push_str(&format!(
                        "{:<12} {:>9} {:>7} {:>7}\n",
                        w.hosts[i].name,
                        d.credits_for(sub),
                        d.outbox_len(sub),
                        d.choked_toward(sub),
                    ));
                }
                out.push_str(&format!(
                    "shed {} events, {} credit-stalled polls",
                    d.stats.events_shed, d.stats.credits_stalled
                ));
                Ok(Some(out))
            }
            Cmd::Overload => match &self.sim {
                Some(sim) => {
                    let w = sim.world();
                    let mut out = String::new();
                    out.push_str("node          ladder  transitions  shed  stalled_polls\n");
                    for i in 0..w.len() {
                        let d = &w.dmons[i];
                        out.push_str(&format!(
                            "{:<12} {:>7} {:>12} {:>5} {:>14}\n",
                            w.hosts[i].name,
                            d.ladder_level(),
                            d.stats.ladder_transitions,
                            d.stats.events_shed,
                            d.stats.credits_stalled,
                        ));
                    }
                    let (hwm, _) = w.net.queue_hwm();
                    out.push_str(&format!(
                        "network: {} link tail-drops, queue high-water {} msgs",
                        w.net.link_drops(),
                        hwm
                    ));
                    Ok(Some(out))
                }
                None => Err("no cluster yet".into()),
            },
            Cmd::Stats => match &self.sim {
                Some(sim) => {
                    let mut out = String::new();
                    out.push_str(
                        "node           sent    recv  ctl  filters_err  rejected  skipped  alive\n",
                    );
                    let w = sim.world();
                    for i in 0..w.len() {
                        let d = &w.dmons[i];
                        out.push_str(&format!(
                            "{:<12} {:>6} {:>7} {:>4} {:>12} {:>9} {:>8} {:>6}\n",
                            w.hosts[i].name,
                            d.stats.events_sent,
                            d.stats.events_received,
                            d.stats.control_handled,
                            d.stats.filter_errors,
                            d.stats.filters_rejected,
                            d.stats.modules_skipped,
                            w.is_alive(NodeId(i)),
                        ));
                    }
                    Ok(Some(out))
                }
                None => Err("no cluster yet".into()),
            },
            Cmd::Latency => match &self.sim {
                Some(sim) => {
                    let s = &sim.world().mon_latency_us;
                    if s.is_empty() {
                        Ok(Some("no monitoring deliveries yet".into()))
                    } else {
                        Ok(Some(format!(
                            "monitoring latency: mean {:.0} us, p50 {:.0}, p99 {:.0}, max {:.0} ({} events)",
                            s.mean(),
                            s.percentile(50.0),
                            s.percentile(99.0),
                            s.max(),
                            s.len()
                        )))
                    }
                }
                None => Err("no cluster yet".into()),
            },
        }
    }
}

/// Run the static verifier on filter source against the standard d-mon
/// metric environment; the report matches what a publisher would decide
/// at deploy time.
fn lint_report(source: &str) -> Result<String, String> {
    let names: Vec<&str> = dproc::modules::standard_modules()
        .iter()
        .map(|m| m.metric_name())
        .collect();
    ecode::lint_report(
        source,
        &ecode::EnvSpec::new(names),
        ecode::vm::DEFAULT_BUDGET,
    )
    .map(|(report, _admitted)| report)
    .map_err(|e| format!("lint: compile error: {e}"))
}

/// Run the workspace replay-safety lint (same engine as
/// `cargo run -p detlint -- --check`) and summarize the result.
fn detlint_report() -> Result<String, String> {
    // The shell may run from anywhere; find the workspace root the same
    // way the detlint CLI does.
    let mut root = std::env::current_dir().map_err(|e| format!("detlint: cwd: {e}"))?;
    loop {
        let manifest = root.join("Cargo.toml");
        if std::fs::read_to_string(&manifest).is_ok_and(|t| t.contains("[workspace]")) {
            break;
        }
        if !root.pop() {
            return Err("detlint: no workspace root above the current directory".into());
        }
    }
    let report = detlint::run_scan(&root).map_err(|e| format!("detlint: {e}"))?;
    let mut out = String::new();
    for f in &report.fresh {
        out.push_str(&f.render());
        out.push('\n');
    }
    out.push_str(&format!(
        "detlint: {} files, {} fns scanned; {} error(s), {} warning(s)",
        report.files_scanned,
        report.fns_scanned,
        report.fresh_errors(),
        report
            .fresh
            .iter()
            .filter(|f| f.severity == detlint::Severity::Warning)
            .count()
    ));
    Ok(out)
}

fn main() {
    let stdin = io::stdin();
    let interactive = atty_stdin();
    let mut shell = Shell::new();
    if interactive {
        println!("dproc shell — `help` lists commands");
    }
    loop {
        if interactive {
            print!("dproc> ");
            let _ = io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        match parse(&line) {
            Ok(cmd) => match shell.exec(cmd) {
                Ok(Some(out)) => {
                    if !out.is_empty() {
                        println!("{out}");
                    }
                }
                Ok(None) => break,
                Err(e) => println!("error: {e}"),
            },
            Err(e) => println!("error: {e}"),
        }
    }
}

/// Crude interactivity check without extra dependencies: scripted runs
/// set `DPROC_SHELL_BATCH=1` or just pipe stdin (we can't portably detect
/// a tty without libc, so default to non-interactive when the var is set).
fn atty_stdin() -> bool {
    std::env::var("DPROC_SHELL_BATCH").is_err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_the_documented_grammar() {
        assert_eq!(
            parse("cluster 3 a b c").unwrap(),
            Cmd::Cluster {
                n: 3,
                names: vec!["a".into(), "b".into(), "c".into()]
            }
        );
        assert_eq!(parse("run 5").unwrap(), Cmd::Run { seconds: 5.0 });
        assert_eq!(
            parse("cat maui cluster/alan/cpu").unwrap(),
            Cmd::Cat {
                node: "maui".into(),
                path: "cluster/alan/cpu".into()
            }
        );
        assert_eq!(
            parse("ctl alan etna period cpu 2").unwrap(),
            Cmd::Ctl {
                node: "alan".into(),
                target: "etna".into(),
                text: "period cpu 2".into()
            }
        );
        assert_eq!(parse("threads 4").unwrap(), Cmd::Threads { n: 4 });
        assert_eq!(parse("racks 8").unwrap(), Cmd::Racks { size: 8 });
        assert_eq!(parse("racks off").unwrap(), Cmd::Racks { size: 0 });
        assert_eq!(parse("topo").unwrap(), Cmd::Topo);
        assert_eq!(
            parse("credits alan").unwrap(),
            Cmd::Credits {
                node: "alan".into()
            }
        );
        assert_eq!(parse("overload").unwrap(), Cmd::Overload);
        assert_eq!(parse("  # comment").unwrap(), Cmd::Nothing);
        assert_eq!(parse("").unwrap(), Cmd::Nothing);
        assert_eq!(parse("quit").unwrap(), Cmd::Quit);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "cluster",
            "cluster x",
            "cluster 0",
            "cluster 2 onlyone",
            "run",
            "run -3",
            "cat onlynode",
            "ctl node target",
            "linpack node many",
            "iperf a b fast",
            "revive",
            "partition onlyone",
            "heal onlyone",
            "loss lots",
            "threads",
            "threads zero",
            "threads 0",
            "racks",
            "racks tall",
            "credits",
            "credits two nodes",
            "frobnicate",
        ] {
            assert!(parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn scripted_session_works_end_to_end() {
        let mut shell = Shell::new();
        let script = [
            "cluster 3 alan maui etna",
            "run 5",
            "linpack etna 2",
            "run 65",
            "ctl alan etna period cpu 2",
            "run 5",
            "stats",
            "latency",
        ];
        let mut outputs = Vec::new();
        for line in script {
            let out = shell
                .exec(parse(line).unwrap())
                .expect("no error")
                .expect("no quit");
            outputs.push(out);
        }
        assert!(outputs[0].contains("alan, maui, etna"));
        // After 70 s, maui can read etna's load through /proc.
        let out = shell
            .exec(parse("cat maui cluster/etna/cpu").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.starts_with("cpu "), "{out}");
        assert!(outputs[6].contains("alan"));
        assert!(outputs[7].contains("monitoring latency"));
        // The control write installed a policy at etna.
        let sim = shell.sim.as_ref().unwrap();
        assert!(sim.world().dmons[2].policy_for(NodeId(0)).is_some());
    }

    #[test]
    fn hostile_host_names_are_an_error_not_a_panic() {
        let mut shell = Shell::new();
        // `a/cpu` would put host 1's directory where host 0's cpu file is.
        for (line, culprit) in [
            ("cluster 2 a a/cpu", "a/cpu"),
            ("cluster 2 alan status", "status"),
            ("cluster 3 alan maui alan", "alan"),
        ] {
            let err = shell.exec(parse(line).unwrap()).unwrap_err();
            assert!(err.contains(&format!("{culprit:?}")), "{line}: {err}");
            assert!(shell.sim.is_none(), "{line}: no cluster came up");
        }
        // The shell is still usable afterwards.
        let up = shell
            .exec(parse("cluster 2 a b").unwrap())
            .unwrap()
            .unwrap();
        assert!(up.contains("a, b"), "{up}");
        shell.exec(parse("run 5").unwrap()).unwrap();
    }

    #[test]
    fn lint_command_reports_verdicts() {
        let mut shell = Shell::new();
        // Works with no cluster: lint is purely static.
        let ok = shell
            .exec(parse("lint { output[0] = input[LOADAVG]; }").unwrap())
            .unwrap()
            .unwrap();
        assert!(ok.contains("verdict: admitted"), "{ok}");
        assert!(ok.contains("reads: LOADAVG"), "{ok}");
        assert!(ok.contains("writes: output[0]"), "{ok}");
        assert!(ok.contains("memo: shared"), "{ok}");
        assert!(ok.contains("memo_safe = true"), "{ok}");
        let bad = shell
            .exec(parse("lint { while (1) { } }").unwrap())
            .unwrap()
            .unwrap();
        assert!(bad.contains("cost: unbounded"), "{bad}");
        assert!(bad.contains("verdict: rejected"), "{bad}");
        // Compile errors surface as recoverable shell errors.
        assert!(shell.exec(parse("lint { nonsense").unwrap()).is_err());
        // An impure filter is admitted but loses memo sharing.
        let impure = shell
            .exec(parse("lint { if (input[LOADAVG].value > input[LOADAVG].last_value_sent) { output[0] = input[LOADAVG]; } }").unwrap())
            .unwrap()
            .unwrap();
        assert!(impure.contains("memo: per-subscriber"), "{impure}");
        assert!(impure.contains("memo_safe = false"), "{impure}");
        assert!(impure.contains("verdict: admitted"), "{impure}");
    }

    #[test]
    fn detlint_command_summarizes_the_workspace() {
        let mut shell = Shell::new();
        let out = shell.exec(parse("detlint").unwrap()).unwrap().unwrap();
        assert!(out.contains("detlint:"), "{out}");
        assert!(out.contains("files"), "{out}");
        // The committed tree must scan clean.
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn fault_commands_drive_the_failure_model() {
        let mut shell = Shell::new();
        shell
            .exec(parse("cluster 3 alan maui etna").unwrap())
            .unwrap();
        shell.exec(parse("run 5").unwrap()).unwrap();
        // Crash + long silence: survivors suspect and then evict maui.
        shell.exec(parse("kill maui").unwrap()).unwrap();
        shell.exec(parse("run 12").unwrap()).unwrap();
        let faults = shell.exec(parse("faults").unwrap()).unwrap().unwrap();
        assert!(faults.contains("partitions: none"), "{faults}");
        {
            let sim = shell.sim.as_ref().unwrap();
            assert!(!sim.world().is_alive(NodeId(1)));
            assert!(sim.world().dmons[0].stats.nodes_evicted >= 1);
        }
        // Revive: maui rejoins and the survivors see it fresh again.
        let out = shell.exec(parse("revive maui").unwrap()).unwrap().unwrap();
        assert!(out.contains("epoch 1"), "{out}");
        shell.exec(parse("run 10").unwrap()).unwrap();
        {
            let sim = shell.sim.as_ref().unwrap();
            assert!(sim.world().is_alive(NodeId(1)));
            let status = sim.world().hosts[0]
                .proc
                .read("cluster/maui/status")
                .unwrap();
            assert!(status.starts_with("fresh"), "{status}");
        }
        // Partition shows up in `faults` and drops deliveries; heal clears.
        shell.exec(parse("partition alan etna").unwrap()).unwrap();
        shell.exec(parse("run 5").unwrap()).unwrap();
        let faults = shell.exec(parse("faults").unwrap()).unwrap().unwrap();
        assert!(faults.contains("alan <-/-> etna"), "{faults}");
        shell.exec(parse("heal alan etna").unwrap()).unwrap();
        let faults = shell.exec(parse("faults").unwrap()).unwrap().unwrap();
        assert!(faults.contains("partitions: none"), "{faults}");
        // Reviving a live node is a user error, not a crash.
        assert!(shell.exec(parse("revive alan").unwrap()).is_err());
        assert!(shell.exec(parse("partition alan alan").unwrap()).is_err());
        assert!(shell.exec(parse("loss 2.0").unwrap()).is_err());
    }

    #[test]
    fn credits_and_overload_commands_surface_flow_control() {
        let mut shell = Shell::new();
        // Both need a cluster.
        assert!(shell.exec(parse("credits node0").unwrap()).is_err());
        assert!(shell.exec(parse("overload").unwrap()).is_err());
        shell
            .exec(parse("cluster 3 alan maui etna").unwrap())
            .unwrap();
        shell.exec(parse("run 10").unwrap()).unwrap();
        // A healthy cluster: full windows, nothing parked, ladder 0.
        let out = shell.exec(parse("credits alan").unwrap()).unwrap().unwrap();
        assert!(out.contains("maui") && out.contains("etna"), "{out}");
        assert!(out.contains("subscriber"), "{out}");
        assert!(!out.contains("alan  "), "publisher not its own subscriber");
        let out = shell.exec(parse("overload").unwrap()).unwrap().unwrap();
        assert!(out.contains("ladder"), "{out}");
        assert!(out.contains("link tail-drops"), "{out}");
        for line in out.lines().skip(1).take(3) {
            assert!(line.contains(" 0"), "healthy cluster shows zeros: {line}");
        }
        // Crash a subscriber: the survivors' windows toward it deflate
        // (spend with no grants coming back) — visible through `credits`
        // before the failure detector evicts the peer and reaps the
        // stream state.
        shell.exec(parse("kill etna").unwrap()).unwrap();
        shell.exec(parse("run 4").unwrap()).unwrap();
        let out = shell.exec(parse("credits alan").unwrap()).unwrap().unwrap();
        assert!(out.contains("etna"), "{out}");
        assert!(out.contains("credit-stalled polls"), "{out}");
        let sim = shell.sim.as_ref().unwrap();
        assert!(
            sim.world().dmons[0].credits_for(NodeId(2)) < kecho::INITIAL_CREDITS,
            "window toward the dead subscriber should be deflating:\n{out}"
        );
    }

    #[test]
    fn threads_command_builds_a_sharded_cluster() {
        let mut shell = Shell::new();
        let out = shell.exec(parse("threads 2").unwrap()).unwrap().unwrap();
        assert!(out.contains("threads = 2"), "{out}");
        let out = shell
            .exec(parse("cluster 4 a b c d").unwrap())
            .unwrap()
            .unwrap();
        assert!(out.contains("2 shards"), "{out}");
        shell.exec(parse("run 5").unwrap()).unwrap();
        // Read paths still work against the reassembled world.
        let stats = shell.exec(parse("stats").unwrap()).unwrap().unwrap();
        assert!(stats.contains('a'), "{stats}");
        // Live fault injection is a friendly error, not a panic.
        let err = shell.exec(parse("loss 0.1").unwrap()).unwrap_err();
        assert!(err.contains("serial driver"), "{err}");
        let err = shell.exec(parse("partition a b").unwrap()).unwrap_err();
        assert!(err.contains("serial driver"), "{err}");
        // Dropping back to one thread restores them on the next cluster.
        shell.exec(parse("threads 1").unwrap()).unwrap();
        shell.exec(parse("cluster 2").unwrap()).unwrap();
        shell.exec(parse("run 2").unwrap()).unwrap();
        assert!(shell.exec(parse("loss 0.1").unwrap()).is_ok());
    }

    #[test]
    fn racks_and_topo_commands_surface_the_hierarchy() {
        let mut shell = Shell::new();
        // topo needs a cluster.
        assert!(shell.exec(parse("topo").unwrap()).is_err());
        shell.exec(parse("racks 2").unwrap()).unwrap();
        let up = shell
            .exec(parse("cluster 6 a b c d e f").unwrap())
            .unwrap()
            .unwrap();
        assert!(up.contains("in 3 racks"), "{up}");
        shell.exec(parse("run 12").unwrap()).unwrap();
        let out = shell.exec(parse("topo").unwrap()).unwrap().unwrap();
        assert!(out.contains("6 nodes in 3 racks"), "{out}");
        assert!(out.contains("aggregator a"), "{out}");
        assert!(out.contains("aggregator c"), "{out}");
        assert!(out.contains("members: e, f"), "{out}");
        assert!(out.contains("digests:"), "{out}");
        assert!(!out.contains("digests: 0 sent"), "{out}");
        // Aggregators publish rack summaries readable through /proc.
        let digest = shell
            .exec(parse("cat a cluster/rack1/cpu").unwrap())
            .unwrap()
            .unwrap();
        assert!(digest.contains("mean"), "{digest}");
        // Rack scoping: a (rack 0) reads its rack peer b, but d's stream
        // (rack 1) never reaches it — only rack 1's digest does.
        assert!(shell.exec(parse("cat a cluster/b/cpu").unwrap()).is_ok());
        assert!(shell.exec(parse("cat a cluster/d/cpu").unwrap()).is_err());
        // `racks off` restores the flat star for the next cluster.
        shell.exec(parse("racks off").unwrap()).unwrap();
        shell.exec(parse("cluster 2").unwrap()).unwrap();
        let out = shell.exec(parse("topo").unwrap()).unwrap().unwrap();
        assert!(out.contains("flat star"), "{out}");
    }

    #[test]
    fn numeric_node_names_resolve() {
        let mut shell = Shell::new();
        shell.exec(parse("cluster 2").unwrap()).unwrap();
        shell.exec(parse("run 3").unwrap()).unwrap();
        let out = shell.exec(parse("ls 0 cluster").unwrap()).unwrap().unwrap();
        assert!(out.contains("node0") && out.contains("node1"));
    }

    #[test]
    fn bad_control_text_reports_without_breaking() {
        let mut shell = Shell::new();
        shell.exec(parse("cluster 2").unwrap()).unwrap();
        let err = shell
            .exec(parse("ctl node0 node1 gibberish here").unwrap())
            .unwrap_err();
        assert!(err.contains("ctl:"), "{err}");
        // Shell still alive after a user error.
        assert!(shell
            .exec(parse("run 1").unwrap())
            .unwrap()
            .unwrap()
            .contains("t ="));
        // Unknown node is also a recoverable error.
        assert!(shell.exec(parse("cat nosuch loadavg").unwrap()).is_err());
        // So is a target that is not a node name's worth of path.
        for target in ["a//b", "x/y"] {
            let err = shell
                .exec(parse(&format!("ctl node0 {target} period * 2")).unwrap())
                .unwrap_err();
            assert_eq!(err, "ctl: bad target");
        }
        assert!(shell
            .exec(parse("ctl node0 node1 period * 2").unwrap())
            .is_ok());
    }
}
