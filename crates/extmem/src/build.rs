//! Layered assembly of a device stack: one sanctioned site instead of an
//! ad-hoc `match` ladder in every front end.
//!
//! The substrate's device middleware composes in a fixed order (bottom to
//! top): backing device -> fault injection -> checksums -> crash injection
//! -> the accounting [`Disk`] -> page cache. Before this module, that assembly lived inline in
//! `cli::make_disk`; a server spawning one stack per job, the benches, and
//! the tests all need the same composition, so [`DiskBuilder`] makes it an
//! explicit, inspectable value. [`DiskBuilder::describe`] renders the
//! configured stack as a canonical string, which is how tests assert that
//! two assembly paths (say, the CLI and a server job) built *identical*
//! stacks.
//!
//! This module is the device layer's one sanctioned raw-assembly site: it
//! may name [`BlockDevice`] implementations directly (xlint rule R1 lists
//! it), so front ends no longer need `xlint::allow(R1)` pragmas.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::budget::MemoryBudget;
use crate::device::{BlockDevice, Disk, FileDevice, MemDevice};
use crate::fault::{CrashController, CrashPlan, FaultInjector, FaultPlan, RetryPolicy};
use crate::pool::WriteMode;

/// What backs the bottom of the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Backing {
    /// Host-RAM blocks (tests, benches, default).
    Mem,
    /// A device file at the given path.
    File(PathBuf),
}

/// A configuration error caught at [`DiskBuilder::build`] time: the
/// requested layers cannot compose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device stack: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// A fully-assembled stack: the accounting disk plus the handles of its
/// injection layers (empty/`None` for layers not configured).
pub struct DiskStack {
    /// The accounting front door every consumer talks to.
    pub disk: Rc<Disk>,
    /// The fault injector, when fault injection was configured.
    pub injector: Option<FaultInjector>,
    /// The crash controller, when a crash layer was configured.
    pub crash: Option<CrashController>,
}

impl std::fmt::Debug for DiskStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStack")
            .field("injector", &self.injector.is_some())
            .field("crash", &self.crash.is_some())
            .finish()
    }
}

/// Builder for a layered device stack; see the [module docs](self).
///
/// ```
/// use nexsort_extmem::{DiskBuilder, WriteMode};
/// let stack = DiskBuilder::new(512).cache(8, WriteMode::Back).build().unwrap();
/// assert_eq!(stack.disk.cache_capacity(), Some(8));
/// ```
#[derive(Debug, Clone)]
pub struct DiskBuilder {
    block_size: usize,
    backing: Backing,
    open_existing: bool,
    faults: Option<FaultPlan>,
    crash: Option<CrashPlan>,
    retry: Option<RetryPolicy>,
    cache: Option<(usize, WriteMode)>,
    shadow: bool,
}

impl DiskBuilder {
    /// A builder over in-memory backing with the given block size.
    pub fn new(block_size: usize) -> Self {
        Self {
            block_size,
            backing: Backing::Mem,
            open_existing: false,
            faults: None,
            crash: None,
            retry: None,
            cache: None,
            shadow: false,
        }
    }

    /// Back the stack with a device file at `path` (created/truncated).
    pub fn file(mut self, path: &Path) -> Self {
        self.backing = Backing::File(path.to_path_buf());
        self.open_existing = false;
        self
    }

    /// Back the stack with an *existing* device file at `path`, preserving
    /// its contents -- the resume/scrub path after a restart.
    pub fn open_file(mut self, path: &Path) -> Self {
        self.backing = Backing::File(path.to_path_buf());
        self.open_existing = true;
        self
    }

    /// Inject faults per `plan` on the backing device, under a checksum
    /// layer. Mutually exclusive with [`crash`](Self::crash).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Add a crash-injection layer above the backing device, armed per
    /// `plan`.
    pub fn crash(mut self, plan: CrashPlan) -> Self {
        self.crash = Some(plan);
        self
    }

    /// Retry transient faults per `policy`.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Enable the LRU page cache with `frames` frames from a dedicated
    /// budget.
    pub fn cache(mut self, frames: usize, mode: WriteMode) -> Self {
        self.cache = Some((frames, mode));
        self
    }

    /// Force-attach the shadow-state sanitizer (it also auto-attaches when
    /// `NEXSORT_SHADOW=1` is set in the environment).
    pub fn shadow(mut self, on: bool) -> Self {
        self.shadow = on;
        self
    }

    /// A canonical one-line rendering of the configured stack. Two builders
    /// describe identically iff they assemble identical stacks, so tests
    /// compare assembly paths by comparing descriptions.
    pub fn describe(&self) -> String {
        let backing = match &self.backing {
            Backing::Mem => "mem".to_string(),
            Backing::File(p) => {
                format!("file:{}{}", p.display(), if self.open_existing { ":open" } else { "" })
            }
        };
        let faults = match &self.faults {
            None => "none".to_string(),
            Some(plan) => format!("{plan:?}"),
        };
        let cache = match &self.cache {
            None => "none".to_string(),
            Some((frames, mode)) => format!("{frames}/{mode:?}"),
        };
        format!(
            "block={} backing={} faults={} crash={:?} retry={:?} cache={} shadow={}",
            self.block_size, backing, faults, self.crash, self.retry, cache, self.shadow,
        )
    }

    /// Assemble the stack. Layer order and composition rules match what
    /// `cli::make_disk` historically built; incompatible layer combinations
    /// fail with a [`BuildError`] naming the conflict.
    pub fn build(self) -> std::result::Result<DiskStack, BuildError> {
        if self.faults.is_some() && self.crash.is_some() {
            return Err(BuildError(
                "crash injection cannot be combined with fault injection".into(),
            ));
        }
        let (disk, injector, crash) = self.assemble()?;
        if let Some(policy) = self.retry {
            disk.set_retry_policy(policy);
        }
        if let Some((frames, mode)) = self.cache {
            if frames > 0 {
                // A dedicated budget: the pool's frames are extra memory on
                // top of the algorithm's own allowance, so logical I/O
                // counts stay comparable across cache sizes.
                disk.enable_cache(&MemoryBudget::new(frames), frames, mode)
                    .map_err(|e| BuildError(format!("cannot enable the page cache: {e}")))?;
            }
        }
        if self.shadow {
            disk.enable_shadow();
        }
        Ok(DiskStack { disk, injector, crash })
    }

    /// The backing device at the bottom of the stack.
    fn backing_device(&self) -> std::result::Result<Box<dyn BlockDevice>, BuildError> {
        Ok(match &self.backing {
            Backing::Mem => Box::new(MemDevice::new(self.block_size)),
            Backing::File(path) => Box::new(
                if self.open_existing {
                    FileDevice::open(path, self.block_size)
                } else {
                    FileDevice::create(path, self.block_size)
                }
                .map_err(|e| BuildError(format!("cannot open device file {path:?}: {e}")))?,
            ),
        })
    }

    /// The raw device layers, bottom-up, before the accounting disk's own
    /// optional layers (retry, cache) are configured.
    #[allow(clippy::type_complexity)]
    fn assemble(
        &self,
    ) -> std::result::Result<(Rc<Disk>, Option<FaultInjector>, Option<CrashController>), BuildError>
    {
        let base = self.backing_device()?;
        // Fault injection below, checksums above: the checksum layer is what
        // convicts the corruption the injector plants.
        if let Some(plan) = &self.faults {
            let (disk, injector) = Disk::new_faulty(base, plan.clone());
            return Ok((disk, Some(injector), None));
        }
        if let Some(plan) = self.crash {
            let (disk, ctl) = Disk::new_crash(base, plan);
            return Ok((disk, None, Some(ctl)));
        }
        Ok((Disk::new(base), None, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoCat;

    #[test]
    fn plain_mem_stack_round_trips() {
        let stack = DiskBuilder::new(128).build().unwrap();
        assert!(stack.injector.is_none() && stack.crash.is_none());
        let b = stack.disk.alloc_block();
        stack.disk.write_block(b, &[7u8; 128], IoCat::SortScratch).unwrap();
        let mut buf = [0u8; 128];
        stack.disk.read_block(b, &mut buf, IoCat::SortScratch).unwrap();
        assert_eq!(buf, [7u8; 128]);
    }

    #[test]
    fn describe_is_canonical_and_distinguishes_stacks() {
        let a = DiskBuilder::new(512).cache(8, WriteMode::Through);
        let b = DiskBuilder::new(512).cache(8, WriteMode::Through);
        assert_eq!(a.describe(), b.describe());
        let c = b.clone().cache(8, WriteMode::Back);
        assert_ne!(a.describe(), c.describe());
    }

    #[test]
    fn faults_and_crash_conflict() {
        let err = DiskBuilder::new(128)
            .faults(FaultPlan::new(1))
            .crash(CrashPlan::Disarmed)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cannot be combined"), "{err}");
    }

    #[test]
    fn file_crash_stack_builds_and_a_bad_path_fails() {
        let dir = std::env::temp_dir().join(format!("xbuild-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        let stack = DiskBuilder::new(128).file(&path).crash(CrashPlan::Disarmed).build().unwrap();
        assert!(stack.crash.is_some());
        assert!(path.exists());
        drop(stack);
        let bad = DiskBuilder::new(128).file(&dir.join("no/such/dir/dev.bin"));
        assert!(bad.build().unwrap_err().to_string().contains("cannot open device file"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_file_preserves_contents() {
        let dir = std::env::temp_dir().join(format!("xbuild-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        let (block, data) = {
            let stack = DiskBuilder::new(64).file(&path).build().unwrap();
            let b = stack.disk.alloc_block();
            let data = [0x5Au8; 64];
            stack.disk.write_block(b, &data, IoCat::RunWrite).unwrap();
            (b, data)
        };
        let reopened = DiskBuilder::new(64).open_file(&path).build().unwrap();
        let mut buf = [0u8; 64];
        reopened.disk.read_block(block, &mut buf, IoCat::RunWrite).unwrap();
        assert_eq!(buf, data);
        std::fs::remove_dir_all(&dir).ok();
    }
}
