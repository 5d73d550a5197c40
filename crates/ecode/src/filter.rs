//! The public filter API: environments, records, compilation, execution.

use crate::analysis::{self, FilterCert};
use crate::bytecode::{self, Chunk};
use crate::error::{CompileError, RuntimeError};
use crate::parser::parse;
use crate::sema::analyze;
use crate::vm;

/// One monitoring sample as seen by a filter: dproc hands the filter the
/// pending value of every metric plus the value last actually sent on the
/// channel (so differential logic like Figure 3's `CACHE_MISS` clause can
/// be written in E-code).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricRecord {
    /// Metric id — its index in the [`EnvSpec`].
    pub id: u32,
    /// Current sampled value.
    pub value: f64,
    /// Value most recently submitted to the channel for this metric.
    pub last_value_sent: f64,
    /// Sample time, seconds since simulation start.
    pub timestamp: f64,
}

impl MetricRecord {
    /// A record with zero `last_value_sent` and timestamp.
    pub fn new(id: u32, value: f64) -> Self {
        MetricRecord {
            id,
            value,
            last_value_sent: 0.0,
            timestamp: 0.0,
        }
    }

    /// Builder-style: set `last_value_sent`.
    pub fn with_last_sent(mut self, last: f64) -> Self {
        self.last_value_sent = last;
        self
    }

    /// Builder-style: set the timestamp.
    pub fn with_timestamp(mut self, ts: f64) -> Self {
        self.timestamp = ts;
        self
    }
}

/// The metric environment a filter compiles against: an ordered list of
/// metric names. Names become integer constants in filter source
/// (`input[LOADAVG]`), and positions index the `input[]` array at run
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvSpec {
    metrics: Vec<String>,
}

impl EnvSpec {
    /// Build from an ordered name list.
    pub fn new<I, S>(metrics: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let metrics: Vec<String> = metrics.into_iter().map(Into::into).collect();
        EnvSpec { metrics }
    }

    /// Index of a metric name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.metrics.iter().position(|m| m == name)
    }

    /// Name of a metric index.
    pub fn name_of(&self, index: usize) -> Option<&str> {
        self.metrics.get(index).map(String::as_str)
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if the environment defines no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate over names in index order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(String::as_str)
    }
}

/// Result of one filter execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutput {
    slots: Vec<Option<MetricRecord>>,
    accept: bool,
    instructions: u64,
}

impl FilterOutput {
    pub(crate) fn new(slots: Vec<Option<MetricRecord>>, accept: bool, instructions: u64) -> Self {
        FilterOutput {
            slots,
            accept,
            instructions,
        }
    }

    /// Emitted records in slot order (empty slots skipped), regardless of
    /// the accept flag.
    pub fn records(&self) -> Vec<MetricRecord> {
        self.slots.iter().filter_map(|s| *s).collect()
    }

    /// Whether the filter accepted the submission (`return 0` suppresses).
    pub fn accept(&self) -> bool {
        self.accept
    }

    /// The records to actually submit: empty when suppressed.
    pub fn records_if_accepted(&self) -> Vec<MetricRecord> {
        if self.accept {
            self.records()
        } else {
            Vec::new()
        }
    }

    /// Iterate the records to actually submit without materializing a
    /// vector: emitted slots in order when accepted, nothing when
    /// suppressed. The hot path drains this straight into an arena or a
    /// pooled buffer, so no intermediate `Vec` is built.
    pub fn iter_accepted(&self) -> impl Iterator<Item = MetricRecord> + '_ {
        let accept = self.accept;
        self.slots
            .iter()
            .filter_map(move |s| if accept { *s } else { None })
    }

    /// Instructions the VM executed producing this output.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Consume the output, returning its slot buffer to the thread-local
    /// pool so the next execution on this thread allocates nothing. Call
    /// this after extracting records on a hot path.
    pub fn recycle(self) {
        put_slot_buf(self.slots);
    }
}

thread_local! {
    /// Recycled output-slot buffers shared by the interpreter and the
    /// compiled executor — filters run per sample, so per-execution
    /// `Vec` allocations would dominate the event path.
    static SLOT_POOL: std::cell::RefCell<Vec<Vec<Option<MetricRecord>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Take an empty output-slot buffer from the thread-local pool.
pub(crate) fn take_slot_buf() -> Vec<Option<MetricRecord>> {
    SLOT_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Return an output-slot buffer to the thread-local pool.
pub(crate) fn put_slot_buf(mut v: Vec<Option<MetricRecord>>) {
    v.clear();
    SLOT_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 16 {
            pool.push(v);
        }
    });
}

/// A compiled, deployable filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    chunk: Chunk,
    env: EnvSpec,
    source: String,
    budget: u64,
    cert: FilterCert,
}

impl Filter {
    /// Compile `source` against `env` with the default instruction budget.
    pub fn compile(source: &str, env: &EnvSpec) -> Result<Filter, CompileError> {
        Self::compile_with_budget(source, env, vm::DEFAULT_BUDGET)
    }

    /// Compile with an explicit per-execution instruction budget.
    pub fn compile_with_budget(
        source: &str,
        env: &EnvSpec,
        budget: u64,
    ) -> Result<Filter, CompileError> {
        let folded = crate::opt::fold_program(analyze(&parse(source)?, env)?);
        let cert = analysis::certify(&folded);
        let chunk = bytecode::compile(&folded);
        Ok(Filter {
            chunk,
            env: env.clone(),
            source: source.to_string(),
            budget,
            cert,
        })
    }

    /// Execute against one input record per environment metric.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the environment size — the
    /// deployer (d-mon) always supplies the full record set.
    pub fn run(&self, inputs: &[MetricRecord]) -> Result<FilterOutput, RuntimeError> {
        assert_eq!(
            inputs.len(),
            self.env.len(),
            "filter expects one record per environment metric"
        );
        vm::run(&self.chunk, inputs, self.budget)
    }

    /// The environment this filter was compiled against.
    pub fn env(&self) -> &EnvSpec {
        &self.env
    }

    /// The original source string (what travels over the control channel).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The compiled bytecode.
    pub fn chunk(&self) -> &Chunk {
        &self.chunk
    }

    /// Instruction budget per execution.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The static-analysis certificate: worst-case cost bound, metric
    /// read set and effects. Lint diagnostics are not part of it — ask
    /// [`crate::lint_report`] for those.
    pub fn cert(&self) -> &FilterCert {
        &self.cert
    }

    /// Why this filter must be refused under its own budget, or `None`
    /// when it is admissible (finite worst-case cost within budget).
    pub fn admission_error(&self) -> Option<String> {
        self.cert.admission_error(self.budget)
    }
}

/// The paper's Figure 3 filter, verbatim (modulo the paper's `input`
/// constants, which this environment defines).
pub const FIG3_SOURCE: &str = r#"
{
    int i = 0;
    if(input[LOADAVG].value > 2){
        output[i] = input[LOADAVG];
        i = i + 1;
    }
    if(input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6){
        output[i] = input[DISKUSAGE];
        i = i + 1;
        output[i] = input[FREEMEM];
        i = i + 1;
    }
    if(input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent){
        output[i] = input[CACHE_MISS];
        i = i + 1;
    }
}
"#;

/// The environment Figure 3 compiles against.
pub fn fig3_env() -> EnvSpec {
    EnvSpec::new(["LOADAVG", "DISKUSAGE", "FREEMEM", "CACHE_MISS"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_lookup() {
        let env = fig3_env();
        assert_eq!(env.len(), 4);
        assert!(!env.is_empty());
        assert_eq!(env.index_of("FREEMEM"), Some(2));
        assert_eq!(env.index_of("NOPE"), None);
        assert_eq!(env.name_of(3), Some("CACHE_MISS"));
        assert_eq!(env.name_of(9), None);
        assert_eq!(env.names().count(), 4);
    }

    #[test]
    fn record_builders() {
        let r = MetricRecord::new(2, 1.5)
            .with_last_sent(1.0)
            .with_timestamp(3.0);
        assert_eq!(r.id, 2);
        assert_eq!(r.value, 1.5);
        assert_eq!(r.last_value_sent, 1.0);
        assert_eq!(r.timestamp, 3.0);
    }

    #[test]
    fn fig3_quiet_system_sends_nothing() {
        let f = Filter::compile(FIG3_SOURCE, &fig3_env()).unwrap();
        let inputs = [
            MetricRecord::new(0, 1.0),                         // loadavg low
            MetricRecord::new(1, 500.0),                       // disk usage low
            MetricRecord::new(2, 400e6),                       // plenty of memory
            MetricRecord::new(3, 100.0).with_last_sent(200.0), // misses not rising
        ];
        let out = f.run(&inputs).unwrap();
        assert!(out.records().is_empty());
    }

    #[test]
    fn fig3_loaded_system_sends_loadavg() {
        let f = Filter::compile(FIG3_SOURCE, &fig3_env()).unwrap();
        let inputs = [
            MetricRecord::new(0, 3.0),
            MetricRecord::new(1, 500.0),
            MetricRecord::new(2, 400e6),
            MetricRecord::new(3, 100.0).with_last_sent(200.0),
        ];
        let out = f.run(&inputs).unwrap();
        let recs = out.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, 0);
        assert_eq!(recs[0].value, 3.0);
    }

    #[test]
    fn fig3_disk_and_memory_pressure_sends_both() {
        let f = Filter::compile(FIG3_SOURCE, &fig3_env()).unwrap();
        let inputs = [
            MetricRecord::new(0, 0.5),
            MetricRecord::new(1, 20_000.0), // heavy disk usage
            MetricRecord::new(2, 10e6),     // < 50 MB free
            MetricRecord::new(3, 0.0),
        ];
        let out = f.run(&inputs).unwrap();
        let recs = out.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, 1);
        assert_eq!(recs[1].id, 2);
    }

    #[test]
    fn fig3_rising_cache_misses_send() {
        let f = Filter::compile(FIG3_SOURCE, &fig3_env()).unwrap();
        let inputs = [
            MetricRecord::new(0, 0.5),
            MetricRecord::new(1, 0.0),
            MetricRecord::new(2, 400e6),
            MetricRecord::new(3, 5000.0).with_last_sent(100.0),
        ];
        let out = f.run(&inputs).unwrap();
        assert_eq!(out.records().len(), 1);
        assert_eq!(out.records()[0].id, 3);
    }

    #[test]
    fn fig3_everything_firing_packs_slots_densely() {
        let f = Filter::compile(FIG3_SOURCE, &fig3_env()).unwrap();
        let inputs = [
            MetricRecord::new(0, 9.0),
            MetricRecord::new(1, 99_999.0),
            MetricRecord::new(2, 1e6),
            MetricRecord::new(3, 1e9).with_last_sent(0.0),
        ];
        let out = f.run(&inputs).unwrap();
        let ids: Vec<u32> = out.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn compile_error_surfaces() {
        let err = Filter::compile("{ int = ; }", &fig3_env()).unwrap_err();
        assert!(err.to_string().contains("compile error"));
    }

    #[test]
    #[should_panic(expected = "one record per environment metric")]
    fn wrong_input_arity_panics() {
        let f = Filter::compile("{ }", &fig3_env()).unwrap();
        let _ = f.run(&[MetricRecord::new(0, 1.0)]);
    }

    #[test]
    fn filter_accessors() {
        let f = Filter::compile_with_budget("{ int x = 0; }", &fig3_env(), 500).unwrap();
        assert_eq!(f.budget(), 500);
        assert!(f.source().contains("int x"));
        assert!(!f.chunk().is_empty());
        assert_eq!(f.env().len(), 4);
    }

    #[test]
    fn differential_filter_in_ecode() {
        // "send only if the value changed by at least 15% from the last
        // measurement" — the paper's differential filter, expressed in
        // E-code for one metric.
        let env = EnvSpec::new(["CPU"]);
        let src = r#"
{
    double last = input[CPU].last_value_sent;
    double cur = input[CPU].value;
    double delta = cur - last;
    if (delta < 0.0) { delta = -delta; }
    if (delta > last * 0.15 || delta > 0.0 - last * 0.15 && last == 0.0) {
        output[0] = input[CPU];
    }
}
"#;
        let f = Filter::compile(src, &env).unwrap();
        let small_change = [MetricRecord::new(0, 1.05).with_last_sent(1.0)];
        assert!(f.run(&small_change).unwrap().records().is_empty());
        let big_change = [MetricRecord::new(0, 1.5).with_last_sent(1.0)];
        assert_eq!(f.run(&big_change).unwrap().records().len(), 1);
    }
}
