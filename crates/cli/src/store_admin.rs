//! `transyt store ls` — offline inspection of a `serve --data-dir` data
//! dir.
//!
//! It uses the read-only [`Store::inspect`] path: it never writes, never
//! truncates a torn journal tail, and is therefore safe to run next to a
//! live server owning the same directory. Collection is the server's own
//! startup GC: a restart applies `--keep-results` to the stored results.

use transyt_store::{JobStatus, Store};

use crate::commands::CliError;

/// `transyt store ls`: a read-only listing of a data dir — stored models,
/// stored results, the replayed job table and the journal's health.
///
/// # Errors
///
/// [`CliError::Run`] when the directory is missing or the journal is
/// unreadable.
pub fn cmd_ls(data_dir: &str) -> Result<(), CliError> {
    let inspection = Store::inspect(data_dir)
        .map_err(|e| CliError::Run(format!("inspecting {data_dir}: {e}")))?;
    println!("data dir {data_dir}");
    println!(
        "journal: {} entr{}, {} bytes{}",
        inspection.journal_entries,
        if inspection.journal_entries == 1 {
            "y"
        } else {
            "ies"
        },
        inspection.journal_bytes,
        if inspection.torn_bytes > 0 {
            format!(" ({} torn trailing bytes)", inspection.torn_bytes)
        } else {
            String::new()
        },
    );
    println!("models ({}):", inspection.models.len());
    for (hash, bytes) in &inspection.models {
        println!("  {hash}  {bytes} bytes");
    }
    println!("results ({}):", inspection.results.len());
    for (fingerprint, bytes, age) in &inspection.results {
        match age {
            Some(age) => println!("  {fingerprint}  {bytes} bytes  age {}s", age.as_secs()),
            None => println!("  {fingerprint}  {bytes} bytes"),
        }
    }
    println!("jobs ({}):", inspection.jobs.len());
    for job in &inspection.jobs {
        // Only a `done` job loses a stored document to eviction.
        let evicted = job.evicted && matches!(job.status, JobStatus::Done { .. });
        println!(
            "  #{} {}{} {} @ {}",
            job.id,
            job.status,
            if evicted { " (evicted)" } else { "" },
            job.command,
            job.model
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ls_refuses_a_missing_dir_and_lists_an_empty_one() {
        let dir =
            std::env::temp_dir().join(format!("transyt-store-admin-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let missing = dir.join("nope");
        assert!(cmd_ls(missing.to_str().unwrap()).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        cmd_ls(dir.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
