//! The telemetry report schema.
//!
//! A [`RunReport`] captures one compiled-and-executed kernel (or one
//! figure computation) in machine-readable form: identity (kernel,
//! policy, seed), aggregate results (iterations, ticks, II), per-PE
//! activity with the edge-classified stall taxonomy ([`PeReport`]),
//! input-queue occupancy histograms ([`QueueReport`]), per-clock-
//! domain edge counters, optional wall-clock [`PhaseTimings`], and a
//! free-form scalar `metrics` table for figure binaries whose output
//! is not per-PE activity.
//!
//! Every type serializes through [`Json`] with a fixed field order,
//! so a report is byte-stable; `from_json` is the matching parser
//! used by the round-trip CI check and by `reproduce_all` when it
//! aggregates child reports.

use crate::json::{Json, JsonError};

/// Version stamp embedded in every report. Every section beyond the
/// core fields (timings, fault campaign, dse) is optional.
pub const SCHEMA_VERSION: u64 = 5;

/// A schema-level decoding error (structurally valid JSON that does
/// not describe a report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// What was wrong, with the offending field path.
    pub message: String,
}

impl SchemaError {
    fn new(message: impl Into<String>) -> SchemaError {
        SchemaError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid report: {}", self.message)
    }
}

impl std::error::Error for SchemaError {}

impl From<JsonError> for SchemaError {
    fn from(e: JsonError) -> Self {
        SchemaError::new(e.to_string())
    }
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, SchemaError> {
    v.get(key)
        .ok_or_else(|| SchemaError::new(format!("missing field `{key}`")))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, SchemaError> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| SchemaError::new(format!("field `{key}` must be a non-negative integer")))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, SchemaError> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| SchemaError::new(format!("field `{key}` must be a number")))
}

fn req_str(v: &Json, key: &str) -> Result<String, SchemaError> {
    Ok(req(v, key)?
        .as_str()
        .ok_or_else(|| SchemaError::new(format!("field `{key}` must be a string")))?
        .to_string())
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, SchemaError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            SchemaError::new(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, SchemaError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| SchemaError::new(format!("field `{key}` must be a number"))),
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, SchemaError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| SchemaError::new(format!("field `{key}` must be a string"))),
    }
}

const DOMAINS: [&str; 3] = ["rest", "nominal", "sprint"];

fn domains_json(values: [u64; 3]) -> Json {
    Json::Object(
        DOMAINS
            .iter()
            .zip(values)
            .map(|(k, v)| (k.to_string(), Json::Uint(v)))
            .collect(),
    )
}

fn domains_from(v: &Json, key: &str) -> Result<[u64; 3], SchemaError> {
    let obj = req(v, key)?;
    let mut out = [0u64; 3];
    for (i, name) in DOMAINS.iter().enumerate() {
        out[i] = req_u64(obj, name)
            .map_err(|_| SchemaError::new(format!("field `{key}.{name}` must be an integer")))?;
    }
    Ok(out)
}

/// Wall-clock pipeline phase timings in nanoseconds.
///
/// Timings are the one nondeterministic part of a report: the
/// reproduction binaries omit them entirely (keeping their reports
/// bit-identical across thread counts), while the interactive CLI
/// includes them. `place_route_ns` covers placement and routing
/// together — the mapper interleaves them in its rip-up-and-retry
/// loop, so they are not separable from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    /// Source-text parsing (CLI only; zero for library kernels).
    pub parse_ns: u64,
    /// AST → DFG lowering and optimization (CLI only).
    pub lower_ns: u64,
    /// Placement + routing.
    pub place_route_ns: u64,
    /// Rest/nominal/sprint power mapping.
    pub power_map_ns: u64,
    /// Bitstream assembly.
    pub assemble_ns: u64,
    /// Cycle-level fabric execution.
    pub simulate_ns: u64,
}

impl PhaseTimings {
    /// Sum of all phases.
    pub fn total_ns(&self) -> u64 {
        self.parse_ns
            + self.lower_ns
            + self.place_route_ns
            + self.power_map_ns
            + self.assemble_ns
            + self.simulate_ns
    }

    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("parse_ns", Json::Uint(self.parse_ns)),
            ("lower_ns", Json::Uint(self.lower_ns)),
            ("place_route_ns", Json::Uint(self.place_route_ns)),
            ("power_map_ns", Json::Uint(self.power_map_ns)),
            ("assemble_ns", Json::Uint(self.assemble_ns)),
            ("simulate_ns", Json::Uint(self.simulate_ns)),
            ("total_ns", Json::Uint(self.total_ns())),
        ])
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<PhaseTimings, SchemaError> {
        Ok(PhaseTimings {
            parse_ns: req_u64(v, "parse_ns")?,
            lower_ns: req_u64(v, "lower_ns")?,
            place_route_ns: req_u64(v, "place_route_ns")?,
            power_map_ns: req_u64(v, "power_map_ns")?,
            assemble_ns: req_u64(v, "assemble_ns")?,
            simulate_ns: req_u64(v, "simulate_ns")?,
        })
    }
}

/// Per-PE activity with edge-classified stall attribution.
///
/// The edge-classified counters partition the PE's local rising
/// edges: every rising edge of a configured (non-power-gated) PE is
/// exactly one of fired / operand-starved / suppressor-gated /
/// backpressured / clock-gateable idle, so
///
/// ```text
/// fire_edges + operand_stall_edges + suppressed_stall_edges
///   + backpressure_stall_edges + gated_ticks == rising_edges
/// ```
///
/// holds for every PE (the conservation invariant, enforced by a
/// property test over random kernels). The three stall classes are
/// what the energy model prices, one stall energy per edge; the gated
/// edges are what the clock-gating analysis consumes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeReport {
    /// Column.
    pub x: u64,
    /// Row.
    pub y: u64,
    /// Op mnemonic, `"bypass"` for route-only PEs.
    pub op: String,
    /// Clock domain: `"rest"`, `"nominal"` or `"sprint"`.
    pub mode: String,
    /// Local rising edges while the run was live.
    pub rising_edges: u64,
    /// Op firings.
    pub fires: u64,
    /// Bypass tokens forwarded.
    pub bypass_tokens: u64,
    /// Edges on which the PE fired and/or forwarded at least once.
    pub fire_edges: u64,
    /// Edges starved of an operand (a required token absent).
    pub operand_stall_edges: u64,
    /// Edges where a token was present but the bisynchronous
    /// suppressor (or its one-period register-aging analogue) held it.
    pub suppressed_stall_edges: u64,
    /// Edges blocked by downstream backpressure only.
    pub backpressure_stall_edges: u64,
    /// Idle edges: nothing to do, nothing blocked — the local clock
    /// could have been gated.
    pub gated_ticks: u64,
    /// SRAM accesses (memory PEs).
    pub sram_accesses: u64,
}

impl PeReport {
    /// Does the edge classification partition the rising edges?
    pub fn conserves_edges(&self) -> bool {
        self.fire_edges
            + self.operand_stall_edges
            + self.suppressed_stall_edges
            + self.backpressure_stall_edges
            + self.gated_ticks
            == self.rising_edges
    }

    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("x", Json::Uint(self.x)),
            ("y", Json::Uint(self.y)),
            ("op", Json::Str(self.op.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("rising_edges", Json::Uint(self.rising_edges)),
            ("fires", Json::Uint(self.fires)),
            ("bypass_tokens", Json::Uint(self.bypass_tokens)),
            ("fire_edges", Json::Uint(self.fire_edges)),
            ("operand_stall_edges", Json::Uint(self.operand_stall_edges)),
            (
                "suppressed_stall_edges",
                Json::Uint(self.suppressed_stall_edges),
            ),
            (
                "backpressure_stall_edges",
                Json::Uint(self.backpressure_stall_edges),
            ),
            ("gated_ticks", Json::Uint(self.gated_ticks)),
            ("sram_accesses", Json::Uint(self.sram_accesses)),
        ])
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<PeReport, SchemaError> {
        Ok(PeReport {
            x: req_u64(v, "x")?,
            y: req_u64(v, "y")?,
            op: req_str(v, "op")?,
            mode: req_str(v, "mode")?,
            rising_edges: req_u64(v, "rising_edges")?,
            fires: req_u64(v, "fires")?,
            bypass_tokens: req_u64(v, "bypass_tokens")?,
            fire_edges: req_u64(v, "fire_edges")?,
            operand_stall_edges: req_u64(v, "operand_stall_edges")?,
            suppressed_stall_edges: req_u64(v, "suppressed_stall_edges")?,
            backpressure_stall_edges: req_u64(v, "backpressure_stall_edges")?,
            gated_ticks: req_u64(v, "gated_ticks")?,
            sram_accesses: req_u64(v, "sram_accesses")?,
        })
    }
}

/// Input-queue occupancy histogram of one PE.
///
/// `occupancy[d]` counts, over the PE's local rising edges, how many
/// of its four direction queues held exactly `d` tokens — so for the
/// paper's depth-2 queues the histogram has three buckets (0, 1, 2)
/// and sums to `4 × rising_edges`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueueReport {
    /// Column.
    pub x: u64,
    /// Row.
    pub y: u64,
    /// Samples per depth, indexed by occupancy.
    pub occupancy: Vec<u64>,
}

impl QueueReport {
    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("x", Json::Uint(self.x)),
            ("y", Json::Uint(self.y)),
            (
                "occupancy",
                Json::Array(self.occupancy.iter().map(|&n| Json::Uint(n)).collect()),
            ),
        ])
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<QueueReport, SchemaError> {
        let occupancy = req(v, "occupancy")?
            .as_array()
            .ok_or_else(|| SchemaError::new("field `occupancy` must be an array"))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| SchemaError::new("occupancy entries must be integers"))
            })
            .collect::<Result<Vec<u64>, SchemaError>>()?;
        Ok(QueueReport {
            x: req_u64(v, "x")?,
            y: req_u64(v, "y")?,
            occupancy,
        })
    }
}

/// One specimen of a fault campaign: a single kernel run under a
/// single injected fault, with its classified outcome.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CampaignEntry {
    /// Kernel the fault was injected into.
    pub kernel: String,
    /// The fault's stable label (e.g. `flip[bit=3,nth=1]@(4,2).West`).
    pub fault: String,
    /// Fault class (`flip`, `drop`, `dup`, `stick-valid`,
    /// `stick-ready`, `stall-domain`).
    pub class: String,
    /// Classified outcome: `detected` (checker reported a violation),
    /// `tolerated` (run completed with the reference result),
    /// `error` (a structured pipeline error), `undetected` (wrong
    /// result, no violation — a gate failure), or `abort` (a panic —
    /// a gate failure).
    pub outcome: String,
    /// Human-readable detail: the first violation or error text.
    pub detail: String,
    /// Number of protocol violations recorded.
    pub violations: u64,
}

impl CampaignEntry {
    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("kernel", Json::Str(self.kernel.clone())),
            ("fault", Json::Str(self.fault.clone())),
            ("class", Json::Str(self.class.clone())),
            ("outcome", Json::Str(self.outcome.clone())),
            ("detail", Json::Str(self.detail.clone())),
            ("violations", Json::Uint(self.violations)),
        ])
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<CampaignEntry, SchemaError> {
        Ok(CampaignEntry {
            kernel: req_str(v, "kernel")?,
            fault: req_str(v, "fault")?,
            class: req_str(v, "class")?,
            outcome: req_str(v, "outcome")?,
            detail: req_str(v, "detail")?,
            violations: req_u64(v, "violations")?,
        })
    }
}

/// The fault-campaign section: seeded injection sweep
/// results aggregated over one or more kernels.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CampaignSection {
    /// Campaign seed (fault plans are deterministic in it).
    pub seed: u64,
    /// False for the control leg (checker on, injector off).
    pub faults_enabled: bool,
    /// Specimens whose fault the checker detected.
    pub detected: u64,
    /// Specimens absorbed by the elastic protocol (reference result,
    /// no violation) — expected for handshake/timing faults.
    pub tolerated: u64,
    /// Specimens converted into structured pipeline errors.
    pub structured_errors: u64,
    /// Specimens that corrupted the result silently (gate failures).
    pub undetected: u64,
    /// Per-specimen records.
    pub entries: Vec<CampaignEntry>,
}

impl CampaignSection {
    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("seed", Json::Uint(self.seed)),
            ("faults_enabled", Json::Bool(self.faults_enabled)),
            ("detected", Json::Uint(self.detected)),
            ("tolerated", Json::Uint(self.tolerated)),
            ("structured_errors", Json::Uint(self.structured_errors)),
            ("undetected", Json::Uint(self.undetected)),
            (
                "entries",
                Json::Array(self.entries.iter().map(CampaignEntry::to_json).collect()),
            ),
        ])
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<CampaignSection, SchemaError> {
        let entries = req(v, "entries")?
            .as_array()
            .ok_or_else(|| SchemaError::new("field `entries` must be an array"))?
            .iter()
            .map(CampaignEntry::from_json)
            .collect::<Result<Vec<CampaignEntry>, SchemaError>>()?;
        let faults_enabled = req(v, "faults_enabled")?
            .as_bool()
            .ok_or_else(|| SchemaError::new("field `faults_enabled` must be a boolean"))?;
        Ok(CampaignSection {
            seed: req_u64(v, "seed")?,
            faults_enabled,
            detected: req_u64(v, "detected")?,
            tolerated: req_u64(v, "tolerated")?,
            structured_errors: req_u64(v, "structured_errors")?,
            undetected: req_u64(v, "undetected")?,
            entries,
        })
    }
}

/// One evaluated design point of a DSE run: a per-node VF-mode string
/// (`R`/`N`/`S` per DFG node) with its analytical-model measurement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DsePointReport {
    /// Mode assignment, one letter per DFG node (`R`/`N`/`S`).
    pub modes: String,
    /// Iteration delay in nominal cycles (1/throughput).
    pub delay: f64,
    /// Normalized energy per iteration.
    pub energy: f64,
    /// Energy-delay product.
    pub edp: f64,
}

impl DsePointReport {
    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("modes", Json::Str(self.modes.clone())),
            ("delay", Json::Float(self.delay)),
            ("energy", Json::Float(self.energy)),
            ("edp", Json::Float(self.edp)),
        ])
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<DsePointReport, SchemaError> {
        Ok(DsePointReport {
            modes: req_str(v, "modes")?,
            delay: req_f64(v, "delay")?,
            energy: req_f64(v, "energy")?,
            edp: req_f64(v, "edp")?,
        })
    }
}

/// The design-space-exploration section: what one
/// `uecgra dse` / `dse_sweep` search found for one kernel.
///
/// Cache hit/miss statistics are deliberately **not** part of the
/// section — they differ between cold and warm reruns, and the
/// acceptance contract requires the report bytes not to. Only
/// search-deterministic quantities appear here.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DseSection {
    /// Search seed.
    pub seed: u64,
    /// `"exhaustive"` or `"hillclimb"`.
    pub strategy: String,
    /// Searchable power groups (chains, pseudo-op groups excluded).
    pub groups: u64,
    /// Unique-evaluation budget the search ran under.
    pub budget: u64,
    /// Candidate evaluations requested (memo hits included).
    pub evaluations: u64,
    /// Distinct assignments measured.
    pub unique_configs: u64,
    /// The greedy `power_map` baseline (better objective by EDP).
    pub baseline: DsePointReport,
    /// Pareto frontier over (delay, energy, EDP), sorted by delay.
    pub frontier: Vec<DsePointReport>,
    /// Minimum-EDP frontier member.
    pub best: DsePointReport,
    /// Frontier best EDP ≤ greedy baseline EDP (the dominance gate).
    pub dominates_baseline: bool,
}

impl DseSection {
    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("seed", Json::Uint(self.seed)),
            ("strategy", Json::Str(self.strategy.clone())),
            ("groups", Json::Uint(self.groups)),
            ("budget", Json::Uint(self.budget)),
            ("evaluations", Json::Uint(self.evaluations)),
            ("unique_configs", Json::Uint(self.unique_configs)),
            ("baseline", self.baseline.to_json()),
            (
                "frontier",
                Json::Array(self.frontier.iter().map(DsePointReport::to_json).collect()),
            ),
            ("best", self.best.to_json()),
            ("dominates_baseline", Json::Bool(self.dominates_baseline)),
        ])
    }

    /// Deserialize.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<DseSection, SchemaError> {
        let frontier = req(v, "frontier")?
            .as_array()
            .ok_or_else(|| SchemaError::new("field `frontier` must be an array"))?
            .iter()
            .map(DsePointReport::from_json)
            .collect::<Result<Vec<DsePointReport>, SchemaError>>()?;
        let dominates_baseline = req(v, "dominates_baseline")?
            .as_bool()
            .ok_or_else(|| SchemaError::new("field `dominates_baseline` must be a boolean"))?;
        Ok(DseSection {
            seed: req_u64(v, "seed")?,
            strategy: req_str(v, "strategy")?,
            groups: req_u64(v, "groups")?,
            budget: req_u64(v, "budget")?,
            evaluations: req_u64(v, "evaluations")?,
            unique_configs: req_u64(v, "unique_configs")?,
            baseline: DsePointReport::from_json(req(v, "baseline")?)?,
            frontier,
            best: DsePointReport::from_json(req(v, "best")?)?,
            dominates_baseline,
        })
    }
}

/// One run's full telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Report name (kernel run label or figure identifier).
    pub name: String,
    /// Kernel name, when the report describes a kernel execution.
    pub kernel: Option<String>,
    /// Policy label (`E-CGRA`, `UE-CGRA EOpt`, `UE-CGRA POpt`).
    pub policy: Option<String>,
    /// Mapping seed.
    pub seed: Option<u64>,
    /// Iterations completed (marker firings).
    pub iterations: u64,
    /// PLL ticks simulated.
    pub ticks: u64,
    /// Run length in nominal cycles.
    pub nominal_cycles: f64,
    /// Steady-state initiation interval in nominal cycles.
    pub ii: Option<f64>,
    /// Stop reason (`Quiesced`, `MarkerDone`, `TickLimit`).
    pub stop: String,
    /// Rising edges per clock domain over the whole run.
    pub domain_edges: [u64; 3],
    /// Clock-gateable idle edges summed per domain.
    pub domain_gated_ticks: [u64; 3],
    /// Per-PE activity (configured PEs only).
    pub pes: Vec<PeReport>,
    /// Per-PE queue-occupancy histograms.
    pub queues: Vec<QueueReport>,
    /// Wall-clock phase timings (omitted by reproduction binaries to
    /// keep their reports deterministic).
    pub timings: Option<PhaseTimings>,
    /// Free-form scalar metrics (figure binaries put their published
    /// numbers here).
    pub metrics: Vec<(String, f64)>,
    /// Fault-campaign results (omitted when `None`).
    pub fault_campaign: Option<CampaignSection>,
    /// Design-space-exploration results (omitted when `None`).
    pub dse: Option<DseSection>,
}

impl RunReport {
    /// Serialize to a [`Json`] value with the canonical field order.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("schema_version".into(), Json::Uint(SCHEMA_VERSION)),
            ("name".into(), Json::Str(self.name.clone())),
        ];
        if let Some(kernel) = &self.kernel {
            fields.push(("kernel".into(), Json::Str(kernel.clone())));
        }
        if let Some(policy) = &self.policy {
            fields.push(("policy".into(), Json::Str(policy.clone())));
        }
        if let Some(seed) = self.seed {
            fields.push(("seed".into(), Json::Uint(seed)));
        }
        fields.push(("iterations".into(), Json::Uint(self.iterations)));
        fields.push(("ticks".into(), Json::Uint(self.ticks)));
        fields.push(("nominal_cycles".into(), Json::Float(self.nominal_cycles)));
        if let Some(ii) = self.ii {
            fields.push(("ii".into(), Json::Float(ii)));
        }
        fields.push(("stop".into(), Json::Str(self.stop.clone())));
        fields.push(("domain_edges".into(), domains_json(self.domain_edges)));
        fields.push((
            "domain_gated_ticks".into(),
            domains_json(self.domain_gated_ticks),
        ));
        fields.push((
            "pes".into(),
            Json::Array(self.pes.iter().map(PeReport::to_json).collect()),
        ));
        fields.push((
            "queues".into(),
            Json::Array(self.queues.iter().map(QueueReport::to_json).collect()),
        ));
        if let Some(t) = &self.timings {
            fields.push(("timings".into(), t.to_json()));
        }
        fields.push((
            "metrics".into(),
            Json::Object(
                self.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Float(*v)))
                    .collect(),
            ),
        ));
        if let Some(c) = &self.fault_campaign {
            fields.push(("fault_campaign".into(), c.to_json()));
        }
        if let Some(d) = &self.dse {
            fields.push(("dse".into(), d.to_json()));
        }
        Json::Object(fields)
    }

    /// Deserialize one report.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on missing fields, type mismatches,
    /// or an unknown schema version.
    pub fn from_json(v: &Json) -> Result<RunReport, SchemaError> {
        let version = req_u64(v, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(SchemaError::new(format!(
                "unsupported schema version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        let pes = req(v, "pes")?
            .as_array()
            .ok_or_else(|| SchemaError::new("field `pes` must be an array"))?
            .iter()
            .map(PeReport::from_json)
            .collect::<Result<Vec<PeReport>, SchemaError>>()?;
        let queues = req(v, "queues")?
            .as_array()
            .ok_or_else(|| SchemaError::new("field `queues` must be an array"))?
            .iter()
            .map(QueueReport::from_json)
            .collect::<Result<Vec<QueueReport>, SchemaError>>()?;
        let timings = match v.get("timings") {
            None | Some(Json::Null) => None,
            Some(t) => Some(PhaseTimings::from_json(t)?),
        };
        let metrics = match v.get("metrics") {
            None => Vec::new(),
            Some(Json::Object(fields)) => fields
                .iter()
                .map(|(k, x)| {
                    x.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| SchemaError::new(format!("metric `{k}` must be a number")))
                })
                .collect::<Result<Vec<(String, f64)>, SchemaError>>()?,
            Some(_) => return Err(SchemaError::new("field `metrics` must be an object")),
        };
        let fault_campaign = match v.get("fault_campaign") {
            None | Some(Json::Null) => None,
            Some(c) => Some(CampaignSection::from_json(c)?),
        };
        let dse = match v.get("dse") {
            None | Some(Json::Null) => None,
            Some(d) => Some(DseSection::from_json(d)?),
        };
        Ok(RunReport {
            name: req_str(v, "name")?,
            kernel: opt_str(v, "kernel")?,
            policy: opt_str(v, "policy")?,
            seed: opt_u64(v, "seed")?,
            iterations: req_u64(v, "iterations")?,
            ticks: req_u64(v, "ticks")?,
            nominal_cycles: req_f64(v, "nominal_cycles")?,
            ii: opt_f64(v, "ii")?,
            stop: req_str(v, "stop")?,
            domain_edges: domains_from(v, "domain_edges")?,
            domain_gated_ticks: domains_from(v, "domain_gated_ticks")?,
            pes,
            queues,
            timings,
            metrics,
            fault_campaign,
            dse,
        })
    }

    /// Serialize a batch of reports as the JSON document every
    /// `--json` flag writes: an array, even for a single run.
    pub fn render_all(reports: &[RunReport]) -> String {
        Json::Array(reports.iter().map(RunReport::to_json).collect()).render()
    }

    /// Parse a `--json` document back into reports.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] on malformed JSON, schema mismatches,
    /// or two reports that share a name (a name identifies one run).
    pub fn parse_all(text: &str) -> Result<Vec<RunReport>, SchemaError> {
        let doc = Json::parse(text)?;
        let reports = doc
            .as_array()
            .ok_or_else(|| SchemaError::new("a report document must be a JSON array"))?
            .iter()
            .map(RunReport::from_json)
            .collect::<Result<Vec<RunReport>, SchemaError>>()?;
        let mut names = std::collections::HashSet::new();
        if let Some(r) = reports.iter().find(|r| !names.insert(r.name.as_str())) {
            let name = &r.name;
            return Err(SchemaError::new(format!("reports share the name `{name}`")));
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            name: "dither/POpt".into(),
            kernel: Some("dither".into()),
            policy: Some("UE-CGRA POpt".into()),
            seed: Some(7),
            iterations: 60,
            ticks: 1234,
            nominal_cycles: 411.5,
            ii: Some(3.25),
            stop: "Quiesced".into(),
            domain_edges: [137, 411, 617],
            domain_gated_ticks: [10, 20, 30],
            pes: vec![PeReport {
                x: 1,
                y: 2,
                op: "add".into(),
                mode: "sprint".into(),
                rising_edges: 100,
                fires: 60,
                bypass_tokens: 3,
                fire_edges: 61,
                operand_stall_edges: 20,
                suppressed_stall_edges: 9,
                backpressure_stall_edges: 5,
                gated_ticks: 5,
                sram_accesses: 0,
            }],
            queues: vec![QueueReport {
                x: 1,
                y: 2,
                occupancy: vec![300, 80, 20],
            }],
            timings: None,
            metrics: vec![("speedup".into(), 1.44)],
            fault_campaign: None,
            dse: None,
        }
    }

    fn sample_dse_section() -> DseSection {
        let best = DsePointReport {
            modes: "SSNNR".into(),
            delay: 2.0,
            energy: 3.5,
            edp: 7.0,
        };
        DseSection {
            seed: 7,
            strategy: "hillclimb".into(),
            groups: 4,
            budget: 256,
            evaluations: 300,
            unique_configs: 212,
            baseline: DsePointReport {
                modes: "SSNNN".into(),
                delay: 2.0,
                energy: 4.0,
                edp: 8.0,
            },
            frontier: vec![
                best.clone(),
                DsePointReport {
                    modes: "NNNNR".into(),
                    delay: 3.0,
                    energy: 2.5,
                    edp: 7.5,
                },
            ],
            best,
            dominates_baseline: true,
        }
    }

    #[test]
    fn report_round_trips_exactly() {
        let report = sample_report();
        let text = RunReport::render_all(std::slice::from_ref(&report));
        let back = RunReport::parse_all(&text).unwrap();
        assert_eq!(back, vec![report]);
        assert_eq!(RunReport::render_all(&back), text);
    }

    #[test]
    fn golden_serialization_shape() {
        // A compact golden of the serializer's field order and layout;
        // the full-run golden lives in `uecgra-core`'s snapshot test.
        let mut report = sample_report();
        report.pes.clear();
        report.queues.clear();
        report.metrics.clear();
        let expected = "\
{
  \"schema_version\": 5,
  \"name\": \"dither/POpt\",
  \"kernel\": \"dither\",
  \"policy\": \"UE-CGRA POpt\",
  \"seed\": 7,
  \"iterations\": 60,
  \"ticks\": 1234,
  \"nominal_cycles\": 411.5,
  \"ii\": 3.25,
  \"stop\": \"Quiesced\",
  \"domain_edges\": {
    \"rest\": 137,
    \"nominal\": 411,
    \"sprint\": 617
  },
  \"domain_gated_ticks\": {
    \"rest\": 10,
    \"nominal\": 20,
    \"sprint\": 30
  },
  \"pes\": [],
  \"queues\": [],
  \"metrics\": {}
}
";
        assert_eq!(report.to_json().render(), expected);
    }

    #[test]
    fn conservation_helper_checks_partition() {
        let pe = sample_report().pes.remove(0);
        assert!(pe.conserves_edges());
        let broken = PeReport {
            gated_ticks: 4,
            ..pe
        };
        assert!(!broken.conserves_edges());
    }

    #[test]
    fn timings_round_trip_and_total() {
        let t = PhaseTimings {
            parse_ns: 1,
            lower_ns: 2,
            place_route_ns: 30,
            power_map_ns: 4,
            assemble_ns: 5,
            simulate_ns: 600,
        };
        assert_eq!(t.total_ns(), 642);
        let back = PhaseTimings::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn fault_campaign_section_round_trips() {
        let mut report = sample_report();
        report.fault_campaign = Some(CampaignSection {
            seed: 99,
            faults_enabled: true,
            detected: 3,
            tolerated: 2,
            structured_errors: 1,
            undetected: 0,
            entries: vec![CampaignEntry {
                kernel: "llist".into(),
                fault: "drop[nth=2]@(4,2).West".into(),
                class: "drop".into(),
                outcome: "detected".into(),
                detail: "protocol violation `token-loss`".into(),
                violations: 1,
            }],
        });
        let text = RunReport::render_all(std::slice::from_ref(&report));
        assert!(text.contains("\"fault_campaign\""));
        let back = RunReport::parse_all(&text).unwrap();
        assert_eq!(back, vec![report]);
        assert_eq!(RunReport::render_all(&back), text);
    }

    #[test]
    fn dse_section_round_trips() {
        let mut report = sample_report();
        report.dse = Some(sample_dse_section());
        let text = RunReport::render_all(std::slice::from_ref(&report));
        assert!(text.contains("\"dse\""));
        assert!(text.contains("\"dominates_baseline\": true"));
        let back = RunReport::parse_all(&text).unwrap();
        assert_eq!(back, vec![report]);
        assert_eq!(RunReport::render_all(&back), text);
    }

    #[test]
    fn shared_report_names_are_rejected() {
        let mut other = sample_report();
        other.iterations = 400;
        let text = RunReport::render_all(&[sample_report(), other]);
        let err = RunReport::parse_all(&text).unwrap_err();
        assert!(
            err.message.contains("reports share the name `dither/POpt`"),
            "{err}"
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut json = sample_report().to_json();
        if let Json::Object(fields) = &mut json {
            fields[0].1 = Json::Uint(99);
        }
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.message.contains("schema version"));
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = RunReport::from_json(&Json::object(vec![(
            "schema_version",
            Json::Uint(SCHEMA_VERSION),
        )]))
        .unwrap_err();
        assert!(err.message.contains('`'), "{err}");
    }
}
