//! [`TrajectorySource`] backends and the format-sniffing factory.
//!
//! Two on-disk formats implement the trait from `crates/trajectory`:
//! [`CsvSource`] over the plain-CSV reader ([`crate::io`]) and
//! [`ContainerSource`] over the binary `.convoy` container
//! ([`crate::container`]). [`open_source`] picks the backend the way the
//! versatiles container layer does — by filename extension when it is
//! unambiguous, by magic bytes otherwise — so every CLI subcommand accepts
//! either format without flags.

use crate::container::{ContainerError, ContainerReader};
use crate::io::read_csv_counting;
use convoy_obs::{Obs, SpanId};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use trajectory::{
    Result, ScanStats, TimeInterval, TrajectoryDatabase, TrajectoryError, TrajectorySource,
};

/// A trajectory input format [`sniff_format`] can identify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// Plain CSV, `object_id,t,x,y` per line.
    Csv,
    /// The binary `.convoy` columnar container.
    Convoy,
}

impl InputFormat {
    /// The canonical filename extension for the format.
    pub fn extension(self) -> &'static str {
        match self {
            InputFormat::Csv => "csv",
            InputFormat::Convoy => "convoy",
        }
    }
}

fn io_error<P: AsRef<Path>>(path: P, e: &std::io::Error) -> TrajectoryError {
    TrajectoryError::Io {
        path: path.as_ref().display().to_string(),
        message: e.to_string(),
    }
}

fn container_error<P: AsRef<Path>>(path: P, e: ContainerError) -> TrajectoryError {
    match e {
        ContainerError::Io(io) => io_error(path, &io),
        other => TrajectoryError::Format {
            path: path.as_ref().display().to_string(),
            message: other.to_string(),
        },
    }
}

/// Decides the format of the file at `path`: a `.convoy` / `.csv` extension
/// is trusted outright; anything else is sniffed by magic bytes (container
/// magic → [`InputFormat::Convoy`], otherwise CSV, the formatless default).
/// Only the sniffing fallback touches the file.
pub fn sniff_format<P: AsRef<Path>>(path: P) -> Result<InputFormat> {
    let path = path.as_ref();
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) if ext.eq_ignore_ascii_case("convoy") => return Ok(InputFormat::Convoy),
        Some(ext) if ext.eq_ignore_ascii_case("csv") => return Ok(InputFormat::Csv),
        _ => {}
    }
    let mut file = File::open(path).map_err(|e| io_error(path, &e))?;
    let mut head = [0u8; crate::container::MAGIC.len()];
    let mut filled = 0usize;
    while filled < head.len() {
        let read = match head.get_mut(filled..) {
            Some(rest) => file.read(rest).map_err(|e| io_error(path, &e))?,
            None => 0,
        };
        if read == 0 {
            break;
        }
        filled = filled.saturating_add(read);
    }
    Ok(if filled == head.len() && head == crate::container::MAGIC {
        InputFormat::Convoy
    } else {
        InputFormat::Csv
    })
}

/// Opens the file at `path` as whichever backend [`sniff_format`] decides.
/// Container files are opened (header validated, block index built) eagerly,
/// so an unreadable or corrupt input fails here rather than at first load.
pub fn open_source<P: AsRef<Path>>(path: P) -> Result<Box<dyn TrajectorySource>> {
    let path = path.as_ref();
    Ok(match sniff_format(path)? {
        InputFormat::Csv => Box::new(CsvSource::new(path)),
        InputFormat::Convoy => Box::new(ContainerSource::open(path)?),
    })
}

/// Records one load's `scan.*` metrics: decode latency, block economy,
/// record and byte throughput. Counters *add* — a session that loads twice
/// (say a full load then a windowed one) reports the combined I/O, while the
/// deterministic view publish ([`trajectory::publish_scan_stats`])
/// overwrites with the last load's authoritative numbers before export.
fn record_scan(obs: &Obs, started_ns: u64, stats: ScanStats, bytes_scanned: u64) {
    if !obs.enabled() {
        return;
    }
    obs.histogram_record("scan.decode_ns", obs.now_ns().saturating_sub(started_ns));
    obs.counter_add("scan.loads", 1);
    obs.counter_add("scan.blocks_read", stats.blocks_read as u64);
    obs.counter_add(
        "scan.blocks_pruned",
        stats.blocks_total.saturating_sub(stats.blocks_read) as u64,
    );
    obs.counter_add("scan.records_read", stats.records_read);
    obs.counter_add("scan.bytes_scanned", bytes_scanned);
}

/// The CSV backend: a flat, unindexed format, so every load parses the whole
/// file (one "block") and windowed loads restrict afterwards.
pub struct CsvSource {
    path: PathBuf,
    stats: ScanStats,
    obs: Obs,
}

impl CsvSource {
    /// A source over the CSV file at `path` (opened lazily, at each load).
    pub fn new<P: AsRef<Path>>(path: P) -> Self {
        CsvSource {
            path: path.as_ref().to_path_buf(),
            stats: ScanStats::default(),
            obs: Obs::noop(),
        }
    }
}

impl TrajectorySource for CsvSource {
    fn load(&mut self) -> Result<TrajectoryDatabase> {
        let _span = self.obs.span_guard("scan.load", SpanId::NONE);
        let started_ns = self.obs.now_ns();
        let file = File::open(&self.path).map_err(|e| io_error(&self.path, &e))?;
        // A flat format scans the whole file every time.
        let bytes_scanned = file.metadata().map_or(0, |m| m.len());
        let (db, records) = read_csv_counting(file)?;
        self.stats = ScanStats {
            blocks_total: 1,
            blocks_read: 1,
            records_read: records,
        };
        record_scan(&self.obs, started_ns, self.stats, bytes_scanned);
        Ok(db)
    }

    fn scan_stats(&self) -> ScanStats {
        self.stats
    }

    fn format_name(&self) -> &'static str {
        "csv"
    }

    fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }
}

/// The `.convoy` backend: block-indexed, so windowed loads read only the
/// blocks whose time range intersects the window, and repeated loads reuse
/// the reader's block buffer.
pub struct ContainerSource {
    path: PathBuf,
    reader: ContainerReader<std::io::BufReader<File>>,
    stats: ScanStats,
    obs: Obs,
}

impl ContainerSource {
    /// Opens the container at `path`, validating its header and building the
    /// block index.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref();
        let reader = ContainerReader::open_file(path).map_err(|e| container_error(path, e))?;
        Ok(ContainerSource {
            path: path.to_path_buf(),
            reader,
            stats: ScanStats::default(),
            obs: Obs::noop(),
        })
    }

    fn record_stats(&mut self, stats: crate::container::ReadStats, started_ns: u64) {
        self.stats = ScanStats {
            blocks_total: self.reader.blocks().len(),
            blocks_read: stats.blocks_read,
            records_read: stats.records_read,
        };
        record_scan(&self.obs, started_ns, self.stats, stats.bytes_scanned());
    }
}

impl TrajectorySource for ContainerSource {
    fn load(&mut self) -> Result<TrajectoryDatabase> {
        // Guard holds its own handle: `record_stats` needs `&mut self`.
        let obs = self.obs.clone();
        let _span = obs.span_guard("scan.load", SpanId::NONE);
        let started_ns = obs.now_ns();
        let (db, stats) = self
            .reader
            .load()
            .map_err(|e| container_error(&self.path, e))?;
        self.record_stats(stats, started_ns);
        Ok(db)
    }

    fn load_window(&mut self, window: TimeInterval) -> Result<TrajectoryDatabase> {
        let obs = self.obs.clone();
        let _span = obs.span_guard("scan.load", SpanId::NONE);
        let started_ns = obs.now_ns();
        let (db, stats) = self
            .reader
            .load_window(window)
            .map_err(|e| container_error(&self.path, e))?;
        self.record_stats(stats, started_ns);
        Ok(db)
    }

    fn scan_stats(&self) -> ScanStats {
        self.stats
    }

    fn format_name(&self) -> &'static str {
        "convoy"
    }

    fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic on bad fixtures
mod tests {
    use super::*;
    use crate::container::write_container_file;
    use crate::io::write_csv_file;
    use crate::{generate, DatasetProfile};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("convoy-source-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn both_backends_load_the_same_database() {
        let dataset = generate(&DatasetProfile::truck().scaled(0.01), 21);
        let dir = temp_dir("equiv");
        let csv = dir.join("data.csv");
        let bin = dir.join("data.convoy");
        write_csv_file(&dataset.database, &csv).unwrap();
        write_container_file(&dataset.database, &bin, 8).unwrap();

        let mut csv_source = open_source(&csv).unwrap();
        let mut bin_source = open_source(&bin).unwrap();
        assert_eq!(csv_source.format_name(), "csv");
        assert_eq!(bin_source.format_name(), "convoy");
        let from_csv = csv_source.load().unwrap();
        let from_bin = bin_source.load().unwrap();
        assert_eq!(from_csv, dataset.database);
        assert_eq!(from_bin, dataset.database);
        assert_eq!(
            csv_source.scan_stats().records_read,
            bin_source.scan_stats().records_read
        );

        // Windowed loads agree too, and the container touches fewer blocks.
        let domain = dataset.database.time_domain().unwrap();
        let window =
            TimeInterval::new(domain.start, domain.start + (domain.end - domain.start) / 3);
        assert_eq!(
            csv_source.load_window(window).unwrap(),
            bin_source.load_window(window).unwrap()
        );
        let stats = bin_source.scan_stats();
        assert!(stats.blocks_read < stats.blocks_total, "{stats:?}");

        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&bin).ok();
    }

    #[test]
    fn sniffing_prefers_extension_then_magic() {
        let dataset = generate(&DatasetProfile::truck().scaled(0.01), 4);
        let dir = temp_dir("sniff");
        // Extensionless container: identified by magic.
        let anon = dir.join("payload");
        write_container_file(&dataset.database, &anon, 64).unwrap();
        assert_eq!(sniff_format(&anon).unwrap(), InputFormat::Convoy);
        // Extensionless CSV: falls back to the formatless default.
        let text = dir.join("plain");
        write_csv_file(&dataset.database, &text).unwrap();
        assert_eq!(sniff_format(&text).unwrap(), InputFormat::Csv);
        // Extensions win without touching content.
        assert_eq!(
            sniff_format(dir.join("missing.csv")).unwrap(),
            InputFormat::Csv
        );
        assert_eq!(
            sniff_format(dir.join("missing.CONVOY")).unwrap(),
            InputFormat::Convoy
        );
        std::fs::remove_file(&anon).ok();
        std::fs::remove_file(&text).ok();
    }

    #[test]
    fn missing_and_corrupt_inputs_are_typed_errors() {
        let dir = temp_dir("errors");
        let missing = dir.join("missing.convoy");
        let Err(err) = open_source(&missing) else {
            panic!("missing file must not open")
        };
        match err {
            TrajectoryError::Io { path, .. } => assert!(path.ends_with("missing.convoy")),
            other => panic!("expected Io, got {other:?}"),
        }
        let garbage = dir.join("garbage.convoy");
        std::fs::write(&garbage, b"this is not a container").unwrap();
        let Err(err) = open_source(&garbage) else {
            panic!("garbage container must not open")
        };
        match err {
            TrajectoryError::Format { path, message } => {
                assert!(path.ends_with("garbage.convoy"));
                assert!(message.contains("magic"), "{message}");
            }
            other => panic!("expected Format, got {other:?}"),
        }
        std::fs::remove_file(&garbage).ok();
    }
}
