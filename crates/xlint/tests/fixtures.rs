//! Golden fixtures: for every rule, a minimal source that fires it exactly
//! once, a clean twin, and the same source silenced by its pragma.

use xlint::{check_manifest, check_rust_file, check_sources};

fn rules_fired(rel: &str, src: &str) -> Vec<String> {
    check_rust_file(rel, src).into_iter().map(|f| f.rule.to_string()).collect()
}

#[test]
fn r1_block_device_outside_the_device_layer() {
    let bad = r#"
fn attach(dev: &dyn BlockDevice) -> u64 {
    dev_blocks(dev)
}
"#;
    assert_eq!(rules_fired("crates/merge/src/fake.rs", bad), ["R1"]);

    // The device layer itself may name the trait.
    assert_eq!(rules_fired("crates/extmem/src/pool.rs", bad), Vec::<String>::new());

    let silenced = r#"
// xlint::allow(R1): fixture exception.
fn attach(dev: &dyn BlockDevice) -> u64 {
    dev_blocks(dev)
}
"#;
    assert_eq!(rules_fired("crates/merge/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r2_panicking_calls_in_the_substrate() {
    let bad = r#"
fn take(x: Option<u8>) -> u8 {
    x.unwrap()
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", bad), ["R2"]);

    // Outside extmem/core the rule does not apply.
    assert_eq!(rules_fired("crates/datagen/src/fake.rs", bad), Vec::<String>::new());

    // Test modules are exempt.
    let in_tests = r#"
fn prod(x: Option<u8>) -> Option<u8> {
    x
}
#[cfg(test)]
mod tests {
    fn t() {
        prod(Some(1)).unwrap();
        panic!("fine in tests");
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", in_tests), Vec::<String>::new());

    let silenced = r#"
fn take(x: Option<u8>) -> u8 {
    x.unwrap() // xlint::allow(R2)
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r3_counter_parity_in_stats() {
    // `writes` is wired through reset/snapshot/since but missing from the
    // Display impl: exactly one finding.
    let bad = r#"
struct Counters {
    reads: u64,
    writes: u64,
}
impl IoStats {
    fn reset(&self) {
        self.c.reads = 0;
        self.c.writes = 0;
    }
    fn snapshot(&self) -> IoSnapshot {
        IoSnapshot { total_reads: self.c.reads, total_writes: self.c.writes }
    }
}
impl IoSnapshot {
    fn since(&self, o: &IoSnapshot) -> IoSnapshot {
        IoSnapshot { total_reads: self.reads - o.reads, total_writes: self.writes - o.writes }
    }
}
impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        rend(f, self.total_reads)
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/stats.rs", bad), ["R3"]);

    let good =
        bad.replace("rend(f, self.total_reads)", "rend(f, self.total_reads, self.total_writes)");
    assert_eq!(rules_fired("crates/extmem/src/stats.rs", &good), Vec::<String>::new());

    // Same parity gap, acknowledged with a pragma on the field.
    let silenced = bad.replace("    writes: u64,", "    writes: u64, // xlint::allow(R3)");
    assert_eq!(rules_fired("crates/extmem/src/stats.rs", &silenced), Vec::<String>::new());

    // The rule only runs on the real stats file; elsewhere it is silent.
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", bad), Vec::<String>::new());
}

#[test]
fn r4_phase_stamp_without_restore() {
    let bad = r#"
fn merge(d: &Disk) {
    d.set_phase(IoPhase::Merge);
    work(d);
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", bad), ["R4"]);

    let good = r#"
fn merge(d: &Disk) {
    let entry_phase = d.phase();
    d.set_phase(IoPhase::Merge);
    work(d);
    d.set_phase(entry_phase);
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", good), Vec::<String>::new());

    let silenced = r#"
fn merge(d: &Disk) {
    d.set_phase(IoPhase::Merge); // xlint::allow(R4)
    work(d);
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r5_wildcard_arm_over_exterror() {
    let bad = r#"
fn transient(e: &ExtError) -> bool {
    match e {
        ExtError::Io(_) => true,
        _ => false,
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", bad), ["R5"]);

    // A binding arm (`other => ...`) is not a wildcard.
    let good = r#"
fn transient(e: &ExtError) -> bool {
    match e {
        ExtError::Io(_) => true,
        other => is_soft(other),
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", good), Vec::<String>::new());

    // A match with no ExtError in any pattern may use wildcards freely.
    let unrelated = r#"
fn classify(n: u32) -> bool {
    match n {
        0 => true,
        _ => false,
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", unrelated), Vec::<String>::new());

    let silenced = r#"
fn transient(e: &ExtError) -> bool {
    match e {
        ExtError::Io(_) => true,
        _ => false, // xlint::allow(R5)
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r6_missing_forbid_unsafe_in_a_crate_root() {
    let bad = "//! A crate.\n\npub fn f() {}\n";
    assert_eq!(rules_fired("crates/fake/src/lib.rs", bad), ["R6"]);

    let good = "//! A crate.\n#![forbid(unsafe_code)]\n\npub fn f() {}\n";
    assert_eq!(rules_fired("crates/fake/src/lib.rs", good), Vec::<String>::new());

    // Non-root files are not checked.
    assert_eq!(rules_fired("crates/fake/src/util.rs", bad), Vec::<String>::new());

    let silenced = "// xlint::allow(R6)\npub fn f() {}\n";
    assert_eq!(rules_fired("crates/fake/src/lib.rs", silenced), Vec::<String>::new());
}

#[test]
fn r7_counter_mutator_outside_the_accounting_layer() {
    let bad = r#"
fn charge(s: &IoStats) {
    s.add_reads(IoCat::Sort, 1);
}
"#;
    assert_eq!(rules_fired("crates/merge/src/fake.rs", bad), ["R7"]);

    // The accounting layer itself is exempt.
    assert_eq!(rules_fired("crates/extmem/src/device.rs", bad), Vec::<String>::new());

    let silenced = r#"
fn charge(s: &IoStats) {
    s.add_reads(IoCat::Sort, 1); // xlint::allow(R7)
}
"#;
    assert_eq!(rules_fired("crates/merge/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r8_non_path_dependency_in_a_manifest() {
    let bad = "[package]\nname = \"fake\"\n\n[dependencies]\nserde = \"1.0\"\n";
    let found = check_manifest("crates/fake/Cargo.toml", bad);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, "R8");
    assert_eq!(found[0].line, 5);

    let good =
        "[package]\nname = \"fake\"\n\n[dependencies]\nfoo = { path = \"../foo\" }\nbar.workspace = true\n";
    assert!(check_manifest("crates/fake/Cargo.toml", good).is_empty());

    let silenced =
        "[package]\nname = \"fake\"\n\n[dependencies]\nserde = \"1.0\" # xlint::allow(R8)\n";
    assert!(check_manifest("crates/fake/Cargo.toml", silenced).is_empty());
}

#[test]
fn r9_journal_commit_without_a_barrier() {
    let bad = r#"
fn seal(j: &mut Journal) -> Result<()> {
    j.append_commit()
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", bad), ["R9"]);

    // The sanctioned shape: flush first, commit after, same body.
    let good = r#"
fn seal(d: &Disk, j: &mut Journal) -> Result<()> {
    d.cache_flush_all()?;
    j.append_commit()
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", good), Vec::<String>::new());

    // A flush *after* the commit does not make the commit sound.
    let late = r#"
fn seal(d: &Disk, j: &mut Journal) -> Result<()> {
    j.append_commit()?;
    d.cache_flush_all()
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", late), ["R9"]);

    // A single-block flush is not the barrier: other dirty frames may
    // still hold data the commit covers.
    let partial = r#"
fn seal(d: &Disk, j: &mut Journal, b: u64) -> Result<()> {
    d.cache_flush(b)?;
    j.append_commit()
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", partial), ["R9"]);

    // The definition itself (`fn append_commit`) is not a call site.
    let def = r#"
fn append_commit(&mut self) -> Result<()> {
    self.append(&JournalRecord::Commit)
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", def), Vec::<String>::new());

    // A flush in the *enclosing* fn does not cover a nested fn's commit.
    let nested = r#"
fn outer(d: &Disk, j: &mut Journal) {
    d.cache_flush_all();
    fn inner(j: &mut Journal) {
        j.append_commit();
    }
    inner(j);
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", nested), ["R9"]);

    // Test modules are exempt, and the pragma silences it.
    let in_tests = r#"
fn prod() {}
#[cfg(test)]
mod tests {
    fn t(j: &mut Journal) {
        j.append_commit().unwrap();
    }
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", in_tests), Vec::<String>::new());

    let silenced = r#"
fn seal(j: &mut Journal) -> Result<()> {
    j.append_commit() // xlint::allow(R9)
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r10_exterror_transience_classification_must_be_total() {
    // `Corrupt` is swallowed by the binding arm: one finding, anchored on
    // the variant that was never named.
    let bad = r#"
enum ExtError {
    Io(Error),
    Corrupt(String),
}
impl ExtError {
    pub fn is_transient(&self) -> bool {
        match self {
            ExtError::Io(_) => true,
            other => false,
        }
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/error.rs", bad), ["R10"]);

    let good = bad.replace("other => false,", "ExtError::Corrupt(_) => false,");
    assert_eq!(rules_fired("crates/extmem/src/error.rs", &good), Vec::<String>::new());

    // A wildcard arm fires even when every variant is named (it would let
    // the *next* variant slip through unclassified). R5 convicts the same
    // line for its own reason.
    let wild = good.replace(
        "ExtError::Corrupt(_) => false,",
        "ExtError::Corrupt(_) => false,\n            _ => false,",
    );
    assert_eq!(rules_fired("crates/extmem/src/error.rs", &wild), ["R10", "R5"]);

    // The rule only runs on the real error.rs; elsewhere it is silent.
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", bad), Vec::<String>::new());

    // A file without the classifier at all is a finding, not a pass.
    let gone = "enum ExtError { Io(Error) }\n";
    assert_eq!(rules_fired("crates/extmem/src/error.rs", gone), ["R10"]);

    let silenced = bad.replace("    Corrupt(String),", "    Corrupt(String), // xlint::allow(R10)");
    assert_eq!(rules_fired("crates/extmem/src/error.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r11_arbiter_acquired_while_core_is_held() {
    // `grab_frames` transitively acquires the arbiter lock; calling it
    // from inside a core hold region inverts the arbiter-before-core
    // order.
    let bad = r#"
fn grab_frames(arb: &BudgetArbiter) -> usize {
    let st = arb.lock_state();
    st.free
}
fn schedule(sh: &Shared) -> usize {
    let core = sh.lock_core();
    grab_frames(&sh.arbiter) + core.queue.len()
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R11"]);

    // Clean twin: read the arbiter *before* taking core.
    let good = r#"
fn grab_frames(arb: &BudgetArbiter) -> usize {
    let st = arb.lock_state();
    st.free
}
fn schedule(sh: &Shared) -> usize {
    let free = grab_frames(&sh.arbiter);
    let core = sh.lock_core();
    free + core.queue.len()
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", good), Vec::<String>::new());

    // Dropping the guard ends the hold region.
    let dropped = r#"
fn grab_frames(arb: &BudgetArbiter) -> usize {
    let st = arb.lock_state();
    st.free
}
fn schedule(sh: &Shared) -> usize {
    let core = sh.lock_core();
    let depth = core.queue.len();
    drop(core);
    grab_frames(&sh.arbiter) + depth
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", dropped), Vec::<String>::new());

    let silenced = bad.replace(
        "    grab_frames(&sh.arbiter) + core.queue.len()",
        "    // xlint::allow(R11)\n    grab_frames(&sh.arbiter) + core.queue.len()",
    );
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r11_sees_the_acquisition_across_files() {
    // The acquiring helper lives in another file; only the workspace-wide
    // call graph can convict the caller.
    let helper = r#"
fn grab_frames(arb: &BudgetArbiter) -> usize {
    let st = arb.lock_state();
    st.free
}
"#;
    let caller = r#"
fn schedule(sh: &Shared) -> usize {
    let core = sh.lock_core();
    grab_frames(&sh.arbiter) + core.queue.len()
}
"#;
    let findings = check_sources(&[
        ("crates/server/src/budget_helper.rs", helper),
        ("crates/server/src/fake.rs", caller),
    ]);
    let fired: Vec<(String, String)> =
        findings.iter().map(|f| (f.file.clone(), f.rule.to_string())).collect();
    assert_eq!(fired, [("crates/server/src/fake.rs".to_string(), "R11".to_string())]);

    // The same caller linted alone is blind to the helper's acquisition —
    // the conviction genuinely needs the cross-file pass.
    assert_eq!(rules_fired("crates/server/src/fake.rs", caller), Vec::<String>::new());
}

#[test]
fn r12_blocking_call_while_core_is_held() {
    let bad = r#"
fn chew(d: &Disk) -> Result<()> {
    d.read_block(0, &mut buf)
}
fn pump(sh: &Shared, d: &Disk) -> Result<()> {
    let core = sh.lock_core();
    chew(d)
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R12"]);

    // Clean twin: do the I/O after releasing the lock.
    let good = r#"
fn chew(d: &Disk) -> Result<()> {
    d.read_block(0, &mut buf)
}
fn pump(sh: &Shared, d: &Disk) -> Result<()> {
    let id = { let core = sh.lock_core(); core.next };
    chew(d)
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", good), Vec::<String>::new());

    let silenced = bad.replace("    chew(d)\n}", "    // xlint::allow(R12)\n    chew(d)\n}");
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r12_condvar_wait_needs_a_predicate_loop() {
    // An `if`-gated wait misses spurious wakeups.
    let bad = r#"
fn park(sh: &Shared) {
    let mut core = sh.lock_core();
    if core.queue.is_empty() {
        core = sh.cv.wait(core);
    }
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R12"]);

    let good = bad.replace("if core.queue.is_empty()", "while core.queue.is_empty()");
    assert_eq!(rules_fired("crates/server/src/fake.rs", &good), Vec::<String>::new());

    let silenced = bad.replace(
        "        core = sh.cv.wait(core);",
        "        // xlint::allow(R12)\n        core = sh.cv.wait(core);",
    );
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r13_concurrency_primitives_outside_the_sanctioned_sites() {
    let bad = "use std::sync::Mutex;\n\nstruct S {\n    m: Mutex<u32>,\n}\n";
    assert_eq!(rules_fired("crates/extmem/src/pool.rs", bad), ["R13", "R13"]);

    // The server crate, the arbiter, and the sanitizer are sanctioned.
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), Vec::<String>::new());
    assert_eq!(rules_fired("crates/extmem/src/arbiter.rs", bad), Vec::<String>::new());

    // Atomics are covered by prefix; test code is exempt.
    let atomics = "fn hot() {\n    let c = AtomicU64::new(0);\n}\n";
    assert_eq!(rules_fired("crates/core/src/run.rs", atomics), ["R13"]);
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{atomics}}}\n");
    assert_eq!(rules_fired("crates/core/src/run.rs", &in_test), Vec::<String>::new());

    let silenced = bad.replace("    m: Mutex<u32>,", "    m: Mutex<u32>, // xlint::allow(R13)");
    assert_eq!(rules_fired("crates/extmem/src/pool.rs", &silenced), ["R13"]);
}

#[test]
fn r14_guard_held_across_a_durability_barrier() {
    let bad = r#"
fn persist(d: &Disk) -> Result<()> {
    d.cache_flush_all()
}
fn commit_all(sh: &Shared, d: &Disk) -> Result<()> {
    let core = sh.lock_core();
    persist(d)
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R14"]);

    // Both lock classes are covered: an arbiter guard is just as wrong.
    let arb = bad.replace("sh.lock_core()", "sh.arbiter.lock_state()");
    assert_eq!(rules_fired("crates/server/src/fake.rs", &arb), ["R14"]);

    // Clean twin: release before flushing.
    let good = r#"
fn persist(d: &Disk) -> Result<()> {
    d.cache_flush_all()
}
fn commit_all(sh: &Shared, d: &Disk) -> Result<()> {
    let core = sh.lock_core();
    drop(core);
    persist(d)
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", good), Vec::<String>::new());

    let silenced = bad.replace("    persist(d)\n}", "    // xlint::allow(R14)\n    persist(d)\n}");
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r15_poison_recovery_outside_the_audited_helper() {
    let bad = r#"
fn grab(m: &Mutex<u32>) -> u32 {
    let g = m.lock().unwrap_or_else(|p| p.into_inner());
    *g
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R15"]);

    // The audited helper itself is the one sanctioned site.
    assert_eq!(rules_fired("crates/extmem/src/locksan.rs", bad), Vec::<String>::new());

    // `unwrap_or_else` without `into_inner` nearby is not the pattern.
    let good = bad.replace("|p| p.into_inner()", "|_| panic!()");
    assert_eq!(
        rules_fired("crates/server/src/fake.rs", &good),
        Vec::<String>::new(),
        "only the poisoning-recovery shape fires"
    );

    let silenced = bad.replace(
        "    let g = m.lock().unwrap_or_else(|p| p.into_inner());",
        "    // xlint::allow(R15)\n    let g = m.lock().unwrap_or_else(|p| p.into_inner());",
    );
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn findings_format_as_file_line_rule_message() {
    let found = check_rust_file(
        "crates/extmem/src/fake.rs",
        "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n",
    );
    assert_eq!(found.len(), 1);
    let line = found[0].to_string();
    assert!(line.starts_with("crates/extmem/src/fake.rs:2: R2 — "), "unexpected format: {line}");
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let findings = xlint::check_workspace(root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "xlint found violations:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
