//! Blessed reference digests for the default seed, so a default run need not
//! recompute them. Any other seed or epoch count is computed after the
//! measured run, outside every timer.

use jarvis_core::deploy::ExactnessDigest;

use crate::json::Json;
use crate::reference;
use crate::workloads::{self, DEFAULT_SEED, WARMUP_EPOCHS};

/// The committed golden file, baked in at build time.
const GOLDEN: &str = include_str!("../golden.json");

/// Where `--bless` writes it.
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

/// The blessed digest for `workload` over `epochs` epochs at `seed`, if any.
pub fn lookup(workload: &str, seed: u64, epochs: u64) -> Option<ExactnessDigest> {
    let doc = Json::parse(GOLDEN).ok()?;
    if doc.get("seed")?.as_u64()? != seed {
        return None;
    }
    doc.get("references")?.items().into_iter().find_map(|r| {
        let matches =
            r.get("workload")?.as_str()? == workload && r.get("epochs")?.as_u64()? == epochs;
        matches.then_some(ExactnessDigest {
            rows: r.get("rows")?.as_u64()?,
            digest: r.get("digest")?.as_str()?.to_string(),
        })
    })
}

/// Recomputes the golden file from the single-threaded reference pass: every
/// workload at the default seed, for the quick run and for `seconds`.
pub fn bless(seconds: u64) -> std::io::Result<()> {
    let mut references = Vec::new();
    for w in workloads::ALL {
        let mut epoch_counts = vec![
            2 * WARMUP_EPOCHS,
            WARMUP_EPOCHS + w.measured_epochs(seconds),
        ];
        epoch_counts.dedup();
        for epochs in epoch_counts {
            let r = reference::compute(&w, DEFAULT_SEED, epochs, 1);
            eprintln!("blessed {} over {epochs} epochs: {:?}", w.name, r.digest);
            references.push(Json::object(vec![
                ("workload", Json::str(w.name)),
                ("epochs", Json::uint(epochs)),
                ("rows", Json::uint(r.digest.rows)),
                ("digest", Json::str(&r.digest.digest)),
            ]));
        }
    }
    let doc = Json::object(vec![
        ("seed", Json::uint(DEFAULT_SEED)),
        ("references", Json::array(references)),
    ]);
    std::fs::write(GOLDEN_PATH, doc.pretty() + "\n")
}
