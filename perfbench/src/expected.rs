//! The recorded outputs the correctness gate compares every run against.
//!
//! `expected.json` holds, for each entry of the seed table, the digests of
//! the campaign bytes, the store's verdict envelopes and the triage tables
//! that the program produced when the benchmark was recorded. A program
//! change that alters any of them fails the benchmark; re-recording is a
//! change to the benchmark, made on its own.

use std::path::Path;

use holes_core::json::Json;

/// Format tag of `expected.json`.
const FORMAT: &str = "perfbench.expected/v1";

/// The recorded digests for one seed-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Both personalities' campaign shards over the campaign range.
    pub campaign: String,
    /// Both personalities' campaign shards over the store range.
    pub store_campaign: String,
    /// The verdict (`viol-*`) envelopes a cold store holds after a
    /// campaign over the store range.
    pub store_verdicts: String,
    /// Both personalities' campaign shards over the triage range.
    pub triage_campaign: String,
    /// Both personalities' triage tables over the triage range.
    pub triage: String,
}

/// The whole recorded table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Digest of the golden campaign (`ccg`, seeds `2500..2506`).
    pub golden: String,
    /// One entry per seed-table index.
    pub entries: Vec<Entry>,
}

impl Expected {
    /// Read and validate `expected.json`.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading `{}`: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("`{}`: {e}", path.display()))?;
        if json.get("format").and_then(Json::as_str) != Some(FORMAT) {
            return Err(format!("`{}` is not a {FORMAT} file", path.display()));
        }
        let field = |object: &Json, key: &str| -> Result<String, String> {
            object
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("`{}`: missing `{key}`", path.display()))
        };
        let golden = field(&json, "golden")?;
        let entries = json
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`{}`: missing `entries`", path.display()))?
            .iter()
            .map(|entry| {
                Ok(Entry {
                    campaign: field(entry, "campaign")?,
                    store_campaign: field(entry, "store_campaign")?,
                    store_verdicts: field(entry, "store_verdicts")?,
                    triage_campaign: field(entry, "triage_campaign")?,
                    triage: field(entry, "triage")?,
                })
            })
            .collect::<Result<Vec<Entry>, String>>()?;
        if entries.is_empty() {
            return Err(format!("`{}` has no entries", path.display()));
        }
        Ok(Expected { golden, entries })
    }

    /// Write the table as `expected.json`.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let entries = self
            .entries
            .iter()
            .enumerate()
            .map(|(index, entry)| {
                Json::Obj(vec![
                    ("index".to_owned(), Json::from_usize(index)),
                    ("campaign".to_owned(), Json::str(&entry.campaign)),
                    (
                        "store_campaign".to_owned(),
                        Json::str(&entry.store_campaign),
                    ),
                    (
                        "store_verdicts".to_owned(),
                        Json::str(&entry.store_verdicts),
                    ),
                    (
                        "triage_campaign".to_owned(),
                        Json::str(&entry.triage_campaign),
                    ),
                    ("triage".to_owned(), Json::str(&entry.triage)),
                ])
            })
            .collect();
        let json = Json::Obj(vec![
            ("format".to_owned(), Json::str(FORMAT)),
            ("golden".to_owned(), Json::str(&self.golden)),
            ("entries".to_owned(), Json::Arr(entries)),
        ]);
        std::fs::write(path, json.to_pretty() + "\n")
            .map_err(|e| format!("writing `{}`: {e}", path.display()))
    }
}
