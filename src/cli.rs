//! Command-line driver: `quake <command> [--flag value]...`
//!
//! A thin, dependency-free argument parser plus one function per
//! subcommand. Parsing is separated from execution so it can be unit
//! tested.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// The subcommand name.
    pub command: String,
    options: HashMap<String, String>,
}

/// Errors from parsing or validating the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A `--flag` had no value.
    MissingValue(String),
    /// An argument did not start with `--` where a flag was expected.
    UnexpectedArgument(String),
    /// A `--flag` the command does not read.
    UnknownFlag {
        /// The subcommand.
        command: String,
        /// The flag name.
        flag: String,
    },
    /// A flag value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The unparsable text.
        value: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no command given; try 'quake help'"),
            CliError::UnknownCommand(c) => write!(f, "unknown command '{c}'; try 'quake help'"),
            CliError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            CliError::UnexpectedArgument(a) => write!(f, "unexpected argument '{a}'"),
            CliError::UnknownFlag { command, flag } => {
                write!(f, "'{command}' has no flag --{flag}; try 'quake help'")
            }
            CliError::BadValue { flag, value } => {
                write!(f, "cannot parse '{value}' for --{flag}")
            }
        }
    }
}

impl Error for CliError {}

/// The available subcommands.
pub const COMMANDS: [&str; 6] = [
    "mesh",
    "characterize",
    "requirements",
    "simulate",
    "smvp-run",
    "help",
];

/// The flags `command` reads; any other flag is a usage error, so a
/// misspelt or retired flag never runs silently with its default.
pub fn flags(command: &str) -> &'static [&'static str] {
    match command {
        "mesh" => &["period", "scale", "seed", "out"],
        "characterize" => &["period", "scale", "seed", "parts", "partitioner"],
        "requirements" => &["mflops", "efficiency", "app"],
        "simulate" => &["period", "scale", "seed", "steps"],
        "smvp-run" => &[
            "period",
            "scale",
            "seed",
            "parts",
            "threads",
            "steps",
            "partitioner",
            "transport",
            "shards",
            "nodes",
            "aggregate",
            "wire-latency",
            "conn-timeout",
            "wire-fault-rate",
            "wire-fault-seed",
            "restart-budget",
            "rcm",
            "overlap",
            "fault-rate",
            "fault-seed",
            "fault-json",
            "trace",
            "trace-json",
            "metrics",
            "profile",
            "profile-json",
            "drift-threshold",
            "span-capacity",
            "quiet",
        ],
        _ => &[],
    }
}

impl Invocation {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or(CliError::MissingCommand)?;
        if !COMMANDS.contains(&command.as_str()) {
            return Err(CliError::UnknownCommand(command));
        }
        let mut options = HashMap::new();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| CliError::UnexpectedArgument(arg.clone()))?
                .to_string();
            if !flags(&command).contains(&key.as_str()) {
                return Err(CliError::UnknownFlag { command, flag: key });
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::MissingValue(key.clone()))?;
            options.insert(key, value);
        }
        Ok(Invocation { command, options })
    }

    /// A string option, or `default`.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A parsed numeric option, or `default`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] if present but unparsable.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                flag: key.to_string(),
                value: v.clone(),
            }),
        }
    }

    /// A comma-separated list of usize, or `default`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::BadValue`] if present but unparsable.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, CliError> {
        match self.options.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| s.trim().parse::<usize>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| CliError::BadValue {
                    flag: key.to_string(),
                    value: v.clone(),
                }),
        }
    }
}

/// The help text.
pub fn help() -> &'static str {
    "quake — reproduction driver for 'Architectural Implications of a Family of \
Irregular Applications' (HPCA 1998)

USAGE: quake <command> [--flag value]...

COMMANDS:
  mesh          generate a synthetic basin mesh and print its statistics
                  --period <s: 10>  --scale <x: 8>  --seed <n>  --out <file>
  characterize  partition a mesh and print its Figure-7 row(s)
                  --period <s: 10>  --scale <x: 8>  --parts <list: 4,8,16>
                  --partitioner <rib|rcb|spectral|morton|linear|random: rib>
  requirements  evaluate Eq. (1)/(2) requirements over the paper's data
                  --mflops <r: 200>  --efficiency <e: 0.9>  --app <sf2>
  simulate      run the explicit wave simulation and print a summary
                  --period <s: 10>  --scale <x: 8>  --steps <n: 300>
  smvp-run      run the instrumented bulk-synchronous SMVP executor and
                print a measured-vs-predicted model validation report.
                Every schedule streams each symmetric stiffness block
                once (half-storage tiles); --overlap first computes the
                rows it sends from a strip of their full rows. Both use
                AVX where the CPU has it, and every run proves its output
                bitwise-equal to a rerun on the scalar fallback. A run
                that differs from a plain shared-transport, barrier,
                fault-free one is proved bitwise-equal to that one clean
                reference, with a line per claim that applies: 'proc
                output bitwise-equal to shared transport', 'netsim output
                bitwise-equal to shared transport', 'overlapped output
                bitwise-equal to barrier schedule' and 'recovered output
                bitwise-equal to fault-free reference'
                  --period <s: 10>  --scale <x: 8>  --parts <p: 4>
                  --threads <t: 4>  --steps <n: 25>
                  --partitioner <rib|rcb|spectral|morton|linear|random: rib>
                  --transport <shared|netsim|proc: shared>  the fabric the
                  exchange runs over: 'shared' is the in-process mailbox,
                  'netsim' bills each block against the postal model
                  (preset T_l/T_w) while carrying it in memory, and 'proc'
                  forks --shards shard processes joined by Unix-domain
                  sockets, microbenchmarks the socket's own T_l/T_w for
                  the Eq. (2) validation, and proves the folded product
                  bitwise-equal to the shared-memory run
                  --shards <n: 2>  shard-process count for --transport proc
                  --nodes <n>  arm the node-aware two-level exchange: the
                  shards chunk contiguously onto n nodes, PEs sharing a
                  node gather their boundary partials over the fast
                  intra-node path, and exactly one merged block per
                  (node, node) pair crosses the slow link — collapsing
                  the O(p^2) small-message exchange into O(n^2) large
                  frames. Output, counters and schedules are
                  bitwise-identical to the flat run (aggregation is
                  transport-level); reports add the max-rate model
                  max_N(B_N*T_l + C_N*T_w) next to Eq. (2). Absent means
                  flat; 0, a non-integer, or n > shards exit 2
                  --aggregate <on|off: on>  ablation arm for --nodes:
                  'off' keeps the node placement (so --wire-latency still
                  prices the same topology) but runs the exchange flat —
                  every boundary block crosses the slow link individually
                  --wire-latency <s: 0>  netem-style emulated inter-node
                  latency on the proc fabric: each ghost frame between
                  shards on different nodes is held s seconds on the
                  sender before hitting the socket, so a single host can
                  price a fabric whose inter-node leg is genuinely slower
                  than its intra-node leg; negative or non-finite exits 2
                  --conn-timeout <s: 30>  proc fault-domain deadline: the
                  bootstrap window, the heartbeat/staleness clock and the
                  degraded-wait round length (heartbeats tick at a quarter
                  of it); must be a finite positive number of seconds
                  --wire-fault-rate <r: 0>  arm wire chaos on the proc
                  fabric: per-ghost-frame probability of injected payload
                  corruption, tail truncation and delay (connection resets
                  at r/4, one per peer; hung-peer stalls at r/10, one per
                  shard); every event lands in the wire ledger and the
                  recovered output is proved bitwise-equal every run
                  --wire-fault-seed <n: 0>  seed for the wire-fault plan
                  --restart-budget <n: 2>  supervised per-shard respawns
                  before the parent falls back to the one-shot ensemble
                  retry (0 disables shard-level restart); the recovery
                  ladder is resend -> deadline+backoff -> shard respawn ->
                  ensemble retry -> typed failure
                  --rcm <true|false: false>  renumber each subdomain with
                  reverse Cuthill-McKee before the run (locality pre-pass;
                  counters and the validation report are unaffected)
                  --overlap <on|off: off>  latency-hiding schedule: each PE
                  posts its boundary-row partials first, computes interior
                  rows while the exchange is in flight, and applies inbound
                  blocks as they land; output is bitwise-equal to the
                  barrier schedule (proved every run) and counters are
                  unaffected; composes with --rcm, --trace and --fault-rate
                  --fault-rate <r: 0>  arm the chaos layer's PE faults:
                  per-(step, PE) probability of stragglers and crashes
                  (crashes at r/10, at most one); a crashed PE's compute
                  is re-run within its step, so the output stays
                  bitwise-equal to the fault-free run (proved every run);
                  blocks fail only on the wire (--wire-fault-rate); 0
                  leaves the clean path untouched
                  --fault-seed <n: 0>  seed for the deterministic fault plan
                  --fault-json <file>  write the FaultReport as JSON
                  --trace <on|off>  arm the telemetry layer: per-phase span
                  ring, latency/size histograms, live Eq. (2) drift monitor
                  (defaults to on when --trace-json or --metrics is given,
                  else off; off leaves the clean hot path untouched)
                  --trace-json <file>  write a Chrome trace_event JSON
                  trace (load in chrome://tracing or Perfetto) as one
                  merged trace: one process track per shard generation
                  (a single track for an in-process run) on a single
                  handshake-aligned clock, flow arrows pairing every
                  remote ghost post with its acquire, and the
                  supervisor's incidents on their own track
                  --metrics <file>  write Prometheus text exposition
                  (proc: merged shard telemetry plus the wire ledger,
                  with shard/generation-labeled per-shard series)
                  --profile <on|off: off>  per-step critical-path
                  attribution from the span telemetry: interior compute,
                  boundary post, ghost apply, transport wait, barrier and
                  recovery rungs per step with the straggler PE/shard
                  named, printed as a table next to the Eq. (2) predicted
                  decomposition under the measured link; implies --trace
                  on (an explicit --trace off is a usage error); rows sum
                  to the measured step wall by construction
                  --profile-json <file>  write the attribution as JSON
                  (implies --profile on)
                  --drift-threshold <x: 2>  flag steps whose worst per-PE
                  exchange residual exceeds x times the median exchange time
                  --span-capacity <n: 65536>  span ring size; the ring keeps
                  the most recent spans and counts the overwritten rest
                  --quiet <true|false: false>  suppress the per-run report
                  and validation tables (errors still print to stderr)
  help          print this text

EXIT STATUS: 0 on success, 1 on runtime failure, 2 on a usage error (an
unknown command, a flag the command does not take, or a bad value)."
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, CliError> {
        Invocation::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let inv = parse(&["mesh", "--period", "5", "--scale", "4"]).unwrap();
        assert_eq!(inv.command, "mesh");
        assert_eq!(inv.get("period", 10.0).unwrap(), 5.0);
        assert_eq!(inv.get("scale", 8.0).unwrap(), 4.0);
        assert_eq!(inv.get("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_and_unknown_commands() {
        assert_eq!(parse(&[]), Err(CliError::MissingCommand));
        assert!(matches!(
            parse(&["frobnicate"]),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(matches!(
            parse(&["mesh", "period", "5"]),
            Err(CliError::UnexpectedArgument(_))
        ));
        assert!(matches!(
            parse(&["mesh", "--period"]),
            Err(CliError::MissingValue(_))
        ));
    }

    #[test]
    fn rejects_flags_the_command_does_not_read() {
        for (args, flag) in [
            (&["smvp-run", "--overlp", "on"][..], "overlp"),
            (&["smvp-run", "--kernel", "turbo"][..], "kernel"),
            (&["mesh", "--steps", "3"][..], "steps"),
            (&["help", "--period", "5"][..], "period"),
        ] {
            assert_eq!(
                parse(args),
                Err(CliError::UnknownFlag {
                    command: args[0].to_string(),
                    flag: flag.to_string()
                })
            );
        }
        assert!(parse(&["smvp-run", "--overlap", "on", "--seed", "3"]).is_ok());
        for c in COMMANDS {
            for flag in flags(c) {
                assert!(
                    help().contains(&format!("--{flag}")),
                    "--{flag} undocumented"
                );
            }
        }
    }

    #[test]
    fn bad_values_are_reported() {
        let inv = parse(&["mesh", "--period", "ten"]).unwrap();
        assert!(matches!(
            inv.get("period", 10.0),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn usize_lists() {
        let inv = parse(&["characterize", "--parts", "4, 8,16"]).unwrap();
        assert_eq!(inv.get_usize_list("parts", &[2]).unwrap(), vec![4, 8, 16]);
        assert_eq!(inv.get_usize_list("absent", &[2]).unwrap(), vec![2]);
        let bad = parse(&["characterize", "--parts", "4,x"]).unwrap();
        assert!(bad.get_usize_list("parts", &[2]).is_err());
    }

    #[test]
    fn string_defaults() {
        let inv = parse(&["characterize"]).unwrap();
        assert_eq!(inv.get_str("partitioner", "rib"), "rib");
    }

    #[test]
    fn help_mentions_every_command() {
        for c in COMMANDS {
            assert!(help().contains(c), "help must mention '{c}'");
        }
    }

    #[test]
    fn help_documents_the_chaos_flags_and_exit_codes() {
        for flag in ["--fault-rate", "--fault-seed", "--fault-json"] {
            assert!(help().contains(flag), "help must mention '{flag}'");
        }
        // One crash recovery: no policy or checkpoint knob is offered.
        for gone in ["--recovery", "--checkpoint-every"] {
            assert!(!help().contains(gone), "help still mentions '{gone}'");
        }
        assert!(help().contains("EXIT STATUS"));
    }

    #[test]
    fn help_documents_the_overlap_flag() {
        assert!(help().contains("--overlap <on|off: off>"));
        assert!(help().contains("bitwise-equal"));
    }

    #[test]
    fn help_documents_the_schedule_chosen_kernel() {
        assert!(!help().contains("--kernel"), "the kernel is not a flag");
        assert!(help().contains("half-storage tiles"));
        assert!(help().contains("scalar fallback"));
    }

    #[test]
    fn help_documents_the_transport_flags() {
        assert!(help().contains("--transport <shared|netsim|proc: shared>"));
        assert!(help().contains("--shards <n: 2>"));
        assert!(help().contains("microbenchmarks"));
    }

    #[test]
    fn help_documents_the_node_aware_exchange() {
        assert!(help().contains("--nodes <n>"));
        assert!(help().contains("one merged block per"));
        assert!(help().contains("max_N(B_N*T_l + C_N*T_w)"));
        assert!(help().contains("--aggregate <on|off: on>"));
        assert!(help().contains("--wire-latency <s: 0>"));
    }

    #[test]
    fn help_documents_the_wire_chaos_flags() {
        for flag in [
            "--conn-timeout <s: 30>",
            "--wire-fault-rate <r: 0>",
            "--wire-fault-seed <n: 0>",
            "--restart-budget <n: 2>",
        ] {
            assert!(help().contains(flag), "help must mention '{flag}'");
        }
        assert!(help().contains("shard respawn"), "ladder documented");
    }

    #[test]
    fn help_documents_the_telemetry_flags() {
        for flag in [
            "--trace",
            "--trace-json",
            "--metrics",
            "--drift-threshold",
            "--span-capacity",
            "--quiet",
        ] {
            assert!(help().contains(flag), "help must mention '{flag}'");
        }
    }

    #[test]
    fn help_documents_the_profiler_flags() {
        assert!(help().contains("--profile <on|off: off>"));
        assert!(help().contains("--profile-json <file>"));
        assert!(help().contains("critical-path"), "what the profiler is");
        assert!(
            help().contains("straggler"),
            "the straggler verdict is the headline feature"
        );
    }

    #[test]
    fn help_documents_the_merged_trace() {
        assert!(
            help().contains("one process track per shard"),
            "the proc trace merge is documented"
        );
        assert!(help().contains("flow arrows"), "flow pairing documented");
    }

    #[test]
    fn error_display() {
        assert!(CliError::MissingCommand.to_string().contains("help"));
        assert!(CliError::BadValue {
            flag: "x".into(),
            value: "y".into()
        }
        .to_string()
        .contains("--x"));
    }
}
