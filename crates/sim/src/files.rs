//! Crash-safe file replacement.

use std::io;
use std::path::Path;

/// What [`write_atomic`] appends to a file name to name its temp file.
pub const TEMP_SUFFIX: &str = ".tmp";

/// Replaces `path` with `bytes` through the temp file `path` +
/// [`TEMP_SUFFIX`] and a rename, so a reader, or a process killed
/// mid-write, sees the old contents or the new, never a torn file.
/// Nothing is synced: a machine that loses power may lose the write.
pub fn write_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(TEMP_SUFFIX);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_the_file_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("cocoa-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("run.json");
        let prom = dir.join("run.prom");
        write_atomic(&json, "old").unwrap();
        write_atomic(&json, "new").unwrap();
        write_atomic(&prom, b"metrics").unwrap();
        assert_eq!(std::fs::read_to_string(&json).unwrap(), "new");
        assert_eq!(std::fs::read_to_string(&prom).unwrap(), "metrics");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["run.json", "run.prom"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
