//! Child processes measured from outside: peak resident set and CPU time
//! of each child, read with `wait4` so every child is
//! accounted separately and reaped before the harness moves on.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// Linux `struct rusage` (64-bit): two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished child.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Peak resident set of the child, in KiB (`ru_maxrss`).
    pub maxrss_kb: u64,
    /// User plus system CPU time of the child.
    pub cpu_s: f64,
}

impl Outcome {
    /// Whether the child exited with status 0.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.code == Some(0)
    }
}

/// Runs `program args` with stdin and stderr closed, capturing stdout,
/// and waits for it.
///
/// # Errors
/// Returns a message when the child cannot be spawned or reaped.
pub fn run(program: &Path, args: &[String]) -> Result<Outcome, String> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is our own unreaped child (std never waits on it:
    // `Child` is dropped without `wait`), and both out-pointers refer to
    // live, properly aligned locals of the declared C layouts.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if reaped != pid {
        return Err(format!(
            "wait4 on {} failed: {}",
            program.display(),
            std::io::Error::last_os_error()
        ));
    }
    read.map_err(|e| format!("cannot read stdout of {}: {e}", program.display()))?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let cpu = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Ok(Outcome {
        stdout,
        code,
        maxrss_kb: u64::try_from(usage.ru_maxrss).unwrap_or(0),
        cpu_s: cpu(&usage.ru_utime) + cpu(&usage.ru_stime),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_stdout_status_and_usage() {
        let out = run(Path::new("sh"), &["-c".into(), "echo hi; exit 3".into()]).unwrap();
        assert_eq!(out.stdout, b"hi\n");
        assert_eq!(out.code, Some(3));
        assert!(!out.succeeded());
        assert!(out.maxrss_kb > 0);
        let err = run(Path::new("/nonexistent/lpperf-child"), &[]).unwrap_err();
        assert!(err.contains("cannot spawn"), "{err}");
    }
}
