//! Campaign-level checkpoint and resume.
//!
//! The paper's 2013 scan ran for seven days; a rerun of it has to
//! survive operator restarts. [`Campaign::run_partial`] runs a
//! single-shard campaign up to a virtual-time cut, freezes the world,
//! and returns a [`CampaignCheckpoint`]: the prober's scan cursor (a
//! [`ScanCheckpoint`]) plus everything already captured.
//! [`Campaign::resume_from`] rebuilds a fresh world positioned at that
//! cursor, re-probes the targets that were in flight, finishes the
//! scan, and merges both halves into one [`CampaignResult`].
//!
//! Because fault draws are hashed per flow (keyed on the endpoint pair
//! and a per-pair ordinal), a probe flow re-run in the fresh world sees
//! exactly the draws it would have seen uninterrupted — so a resumed
//! lossy campaign classifies identically to a straight run. Two
//! exceptions: time-*windowed* fault rules are evaluated against the
//! resumed world's restarted clock, and shared forwarder upstreams
//! accumulate cross-flow ordinals that the restart resets; resumption
//! is exact for always-on rules over non-forwarding populations.

use std::net::Ipv4Addr;
use std::time::Duration;

pub mod integrity {
    //! A tamper-evident envelope for checkpoint files.
    //!
    //! Checkpoints are the only state that survives a crash, so a
    //! truncated or bit-flipped file must be *detected* at resume, never
    //! silently parsed into half a table. [`seal`] prefixes a payload
    //! with a one-line header carrying the payload length and a 64-bit
    //! FNV-1a digest; [`unseal`] re-verifies both and says exactly which
    //! way the file is bad. [`persist_atomic`] writes a sealed file
    //! crash-safely: temp file, `fsync` the file, rename into place,
    //! `fsync` the directory — a `kill -9` at any instant leaves either
    //! the old generation or the new one, never a torn file that
    //! *passes* verification.

    use std::fs;
    use std::io::{self, Write};
    use std::path::Path;

    /// Header magic; bump the version when the envelope layout changes.
    pub const MAGIC: &str = "ORSCOPE-CKPT/1";

    /// How a sealed file failed verification.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum IntegrityError {
        /// No header line, or one that does not parse.
        BadHeader,
        /// The payload is shorter (truncation) or longer (splice) than
        /// the header promised.
        LengthMismatch {
            /// Bytes the header declared.
            declared: usize,
            /// Bytes actually present after the header.
            actual: usize,
        },
        /// The payload bytes do not hash to the header digest.
        DigestMismatch,
    }

    impl std::fmt::Display for IntegrityError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                IntegrityError::BadHeader => write!(f, "missing or malformed envelope header"),
                IntegrityError::LengthMismatch { declared, actual } => write!(
                    f,
                    "payload length {actual} does not match declared {declared} (truncated?)"
                ),
                IntegrityError::DigestMismatch => {
                    write!(f, "payload digest mismatch (bit flip or partial overwrite)")
                }
            }
        }
    }

    impl std::error::Error for IntegrityError {}

    /// 64-bit FNV-1a over `bytes` — not cryptographic, but a single
    /// flipped bit anywhere in the payload changes it, which is the
    /// failure model for local disk corruption.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    /// Spare capacity a payload buffer needs for [`seal`] to put the
    /// header in front of it without reallocating: the magic, a length
    /// of up to twenty digits, the digest, two spaces and the newline.
    pub const HEADER_ROOM: usize = MAGIC.len() + 40;

    /// The envelope's header line, without its newline.
    fn header(len: usize, digest: u64) -> String {
        format!("{MAGIC} {len} {digest:016x}")
    }

    /// Wraps `payload` in the envelope, `MAGIC len digest\n` + payload,
    /// in the payload's own buffer: a checkpoint is the largest thing
    /// the service writes, and sealing it makes no second copy.
    pub fn seal(mut payload: Vec<u8>) -> Vec<u8> {
        let header = header(payload.len(), digest(&payload)) + "\n";
        payload.extend_from_slice(header.as_bytes());
        payload.rotate_right(header.len());
        payload
    }

    /// Verifies the envelope and returns the payload slice. The header
    /// must read exactly as [`seal`] writes it: a length with no sign
    /// and no leading zero, sixteen lowercase hex digits, one space
    /// between fields.
    ///
    /// # Errors
    ///
    /// [`IntegrityError`] naming the first check that failed.
    pub fn unseal(sealed: &[u8]) -> Result<&[u8], IntegrityError> {
        let newline = sealed
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(IntegrityError::BadHeader)?;
        let header =
            std::str::from_utf8(&sealed[..newline]).map_err(|_| IntegrityError::BadHeader)?;
        let mut parts = header.split(' ');
        if parts.next() != Some(MAGIC) {
            return Err(IntegrityError::BadHeader);
        }
        let declared: usize = parts
            .next()
            .and_then(|raw| raw.parse().ok())
            .ok_or(IntegrityError::BadHeader)?;
        let expected = u64::from_str_radix(parts.next().ok_or(IntegrityError::BadHeader)?, 16)
            .map_err(|_| IntegrityError::BadHeader)?;
        // The parsers take a sign, leading zeros and uppercase hex, which
        // `seal` never writes: only its own spelling of the two is a header.
        if header != self::header(declared, expected) {
            return Err(IntegrityError::BadHeader);
        }
        let payload = &sealed[newline + 1..];
        if payload.len() != declared {
            return Err(IntegrityError::LengthMismatch {
                declared,
                actual: payload.len(),
            });
        }
        if digest(payload) != expected {
            return Err(IntegrityError::DigestMismatch);
        }
        Ok(payload)
    }

    /// Writes `bytes` to `path` crash-safely: staged temp file (`path`
    /// with `.tmp` appended), `fsync`, rename over the target, then
    /// `fsync` the directory (created if missing) so the rename itself
    /// survives a power cut.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn persist_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        let dir = dir.unwrap_or(Path::new("."));
        fs::create_dir_all(dir)?;
        let mut staging = path.as_os_str().to_owned();
        staging.push(".tmp");
        {
            let mut file = fs::File::create(&staging)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        fs::rename(&staging, path)?;
        // Directory fsync is best-effort off Unix (opening a directory
        // for sync is not portable), and even on Unix some filesystems
        // refuse it; the rename above is still atomic either way.
        if let Ok(dir_handle) = fs::File::open(dir) {
            let _ = dir_handle.sync_all();
        }
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn seal_unseal_roundtrips() {
            let payload = b"{\"epochs\": 3}\n";
            let mut buffer = Vec::with_capacity(payload.len() + HEADER_ROOM);
            buffer.extend_from_slice(payload);
            let at = buffer.as_ptr();
            let sealed = seal(buffer);
            assert_eq!(unseal(&sealed).unwrap(), payload);
            assert_eq!(sealed.as_ptr(), at, "sealed in place");
        }

        #[test]
        fn truncation_is_length_mismatch() {
            let sealed = seal(b"0123456789".to_vec());
            for cut in [sealed.len() - 1, sealed.len() - 5] {
                match unseal(&sealed[..cut]) {
                    Err(IntegrityError::LengthMismatch { declared: 10, .. }) => {}
                    other => panic!("truncation at {cut} gave {other:?}"),
                }
            }
        }

        #[test]
        fn bit_flip_is_digest_mismatch() {
            let mut sealed = seal(b"0123456789".to_vec());
            let last = sealed.len() - 1;
            sealed[last] ^= 0x40; // flip inside the payload, length kept
            assert_eq!(unseal(&sealed), Err(IntegrityError::DigestMismatch));
        }

        #[test]
        fn garbage_and_empty_are_bad_headers() {
            assert_eq!(unseal(b""), Err(IntegrityError::BadHeader));
            assert_eq!(
                unseal(b"not an envelope\nx"),
                Err(IntegrityError::BadHeader)
            );
            assert_eq!(unseal(b"\xff\xfe\n"), Err(IntegrityError::BadHeader));
        }

        #[test]
        fn persist_atomic_leaves_no_staging_file() {
            let dir =
                std::env::temp_dir().join(format!("orscope-integrity-test-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let path = dir.join("gen.ckpt");
            persist_atomic(&path, &seal(b"payload".to_vec())).unwrap();
            assert!(path.exists());
            assert!(!dir.join("gen.ckpt.tmp").exists());
            assert_eq!(unseal(&fs::read(&path).unwrap()).unwrap(), b"payload");
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

use orscope_analysis::RecordSink;
use orscope_authns::CapturedPacket;
use orscope_netsim::SimTime;
use orscope_prober::{R2Capture, ScanCheckpoint, TargetSource};
use orscope_resolver::paper::YearSpec;
use orscope_telemetry::Collector;

use crate::campaign::{Campaign, ShardPlan};
use crate::error::CampaignError;
use crate::host::Host;
use crate::infra::{seed_geo_db, seed_threat_db};
use crate::recorder::ShardRecorder;
use crate::result::CampaignResult;

/// A suspended single-shard campaign: scan cursor plus everything the
/// first phase already captured.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    /// The prober's cursor (serializable; see
    /// [`ScanCheckpoint::to_json_string`]).
    pub scan: ScanCheckpoint,
    /// Targets whose probe was in flight at the cut; they are re-probed
    /// on resume.
    pub outstanding: Vec<Ipv4Addr>,
    /// R2 packets captured before the cut.
    pub captures: Vec<R2Capture>,
    /// The authoritative server's packet capture before the cut.
    pub auth_packets: Vec<CapturedPacket>,
}

impl Campaign {
    /// Runs a single-shard campaign up to `stop_at` of virtual time and
    /// returns the frozen state.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidConfig`] for a degenerate
    /// configuration or a shard count other than 1 (checkpointing
    /// freezes one world; shard a resumed campaign afterwards instead).
    pub fn run_partial(&self, stop_at: Duration) -> Result<CampaignCheckpoint, CampaignError> {
        let config = self.config();
        config.validate()?;
        if config.shards != 1 {
            return Err(CampaignError::InvalidConfig(format!(
                "checkpointing requires shards = 1 (got {})",
                config.shards
            )));
        }
        let spec = YearSpec::get(config.year);
        let population = std::sync::Arc::new(self.build_population());
        let knobs = self.shard_knobs(&spec);
        let targets = self.plan_targets(&spec, &population);
        let plan = ShardPlan::new(
            config,
            &knobs,
            0,
            0,
            TargetSource::new(targets.shard(0, 1)),
            &population,
            targets.hosts(),
        );
        // Phase one buffers whatever the analysis mode: the checkpoint
        // carries the records themselves.
        let recorder = ShardRecorder::buffering(self.publisher(&plan.hosts, population.table()));
        let mut world = self.build_shard(plan, None, recorder);
        world.net.run_until(SimTime::ZERO + stop_at);
        let (scan, outstanding) = world
            .net
            .with_host(config.infra.prober, |host| match host {
                Host::Prober(prober) => (prober.checkpoint(), prober.outstanding_targets()),
                _ => unreachable!("the campaign put its prober here"),
            })
            .expect("prober registered");
        let recorder = world.recorder.take();
        Ok(CampaignCheckpoint {
            scan,
            outstanding,
            captures: recorder.captures,
            auth_packets: recorder.auth_packets,
        })
    }

    /// Rebuilds a fresh world positioned at `checkpoint`, finishes the
    /// scan, and merges both phases into one result.
    ///
    /// The configuration must be the one the checkpoint was taken under
    /// (same year, scale, and seed), so the rebuilt population and
    /// target order match the suspended scan's.
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run_partial`].
    pub fn resume_from(
        &self,
        checkpoint: &CampaignCheckpoint,
    ) -> Result<CampaignResult, CampaignError> {
        let config = self.config();
        config.validate()?;
        if config.shards != 1 {
            return Err(CampaignError::InvalidConfig(format!(
                "resuming requires shards = 1 (got {})",
                config.shards
            )));
        }
        let spec = YearSpec::get(config.year);
        let population = std::sync::Arc::new(self.build_population());
        let threat = seed_threat_db(&population);
        let geo = seed_geo_db(&population);
        let knobs = self.shard_knobs(&spec);
        // The original target walk, started again (the prober skips to
        // the cursor, which re-derives the silent fill up to there), with
        // the interrupted probes re-appended at the tail. Resume paces
        // locally: the global slot grid described the uninterrupted
        // scan, not the remaining-targets tail.
        let targets = self.plan_targets(&spec, &population);
        let tail = (targets.len()..).zip(checkpoint.outstanding.clone());
        let plan = ShardPlan::new(
            config,
            &knobs,
            0,
            0,
            TargetSource::new(targets.shard(0, 1).chain(tail)),
            &population,
            targets.hosts(),
        );
        // Phase one's records are fed to the recorder phase two writes
        // into, so the analysis (and any tap) sees the whole campaign.
        let publisher = self.publisher(&plan.hosts, population.table());
        let mut recorder = ShardRecorder::new(config, &population, publisher);
        for packet in &checkpoint.auth_packets {
            recorder.on_auth(packet);
        }
        for capture in &checkpoint.captures {
            recorder.on_r2(capture);
        }
        let mut world = self.build_shard(plan, Some(&checkpoint.scan), recorder);
        let started = std::time::Instant::now();
        world.net.run_until_idle();
        let outcome = world.collect(started.elapsed());
        Ok(self.assemble(
            population,
            threat,
            geo,
            Collector::new(),
            vec![outcome],
            None,
        ))
    }
}
