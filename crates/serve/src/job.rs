//! Job specifications: the study-shaped unit of work the queue spools
//! and the server executes.
//!
//! A [`JobSpec`] captures exactly the submitter-visible study knobs —
//! the same flags a direct `repro` invocation would take — in one
//! canonical JSON document. Canonical means: fixed key order, absent
//! optionals rendered as `null`, no timestamps, no submitter identity.
//! The FNV-1a hash of those bytes is the job's
//! [`fingerprint`](crate::JobSpec::fingerprint): two submissions asking
//! for the same study hash identically no matter who sent them or when,
//! which is what makes server-side deduplication a file-name
//! comparison.
//!
//! Deliberately *excluded* from the spec: thread counts (results are
//! bit-identical across them), progress/metrics flags (presentation,
//! not work), and checkpoint directories (the server owns the store).

use phaselab_core::Fnv;
use phaselab_obs::Json;
use std::fmt;

use crate::json;

/// The study-shaped description of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The experiment to render (e.g. `table3`).
    pub experiment: String,
    /// Workload scale: `tiny`, `small`, or `full`.
    pub scale: String,
    /// Interval length in instructions.
    pub interval_len: u64,
    /// Samples per benchmark.
    pub samples: u64,
    /// Number of k-means clusters.
    pub k: u64,
    /// Master seed.
    pub seed: u64,
    /// VM execution engine: `block` or `inst`.
    pub engine: String,
    /// Suite restriction (short names), or `None` for all suites.
    pub suites: Option<Vec<String>>,
    /// Benchmark-name restriction; empty means no restriction.
    pub only: Vec<String>,
    /// Runaway watchdog budget override, if any.
    pub max_inst_per_bench: Option<u64>,
    /// Whether the static pre-flight runs (the default).
    pub static_analysis: bool,
    /// Mini-batch k-means size, or `None` for the exact solver.
    pub kmeans_batch: Option<u64>,
}

/// Why a spool document could not be understood as a job spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(json::ParseError),
    /// The document parsed but a field is missing or mistyped.
    Field(&'static str),
    /// The schema version is not one this build understands.
    Schema(u64),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "malformed JSON: {e}"),
            SpecError::Field(name) => write!(f, "missing or mistyped field `{name}`"),
            SpecError::Schema(v) => write!(f, "unsupported job schema {v}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Version stamp of the spool JSON layout.
const SCHEMA: u64 = 1;

impl JobSpec {
    /// Renders the canonical JSON document (see the [module
    /// docs](self) for what canonical means here).
    pub fn to_json(&self) -> String {
        self.to_value().render_pretty()
    }

    /// The canonical document as a [`Json`] value, for embedding in
    /// larger records (completion records carry the spec under `spec`).
    pub fn to_value(&self) -> Json {
        let opt_u64 = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        let strs =
            |items: &[String]| Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect());
        Json::Obj(vec![
            ("schema".to_string(), Json::U64(SCHEMA)),
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("scale".to_string(), Json::Str(self.scale.clone())),
            ("interval_len".to_string(), Json::U64(self.interval_len)),
            ("samples".to_string(), Json::U64(self.samples)),
            ("k".to_string(), Json::U64(self.k)),
            ("seed".to_string(), Json::U64(self.seed)),
            ("engine".to_string(), Json::Str(self.engine.clone())),
            (
                "suites".to_string(),
                self.suites.as_deref().map_or(Json::Null, strs),
            ),
            ("only".to_string(), strs(&self.only)),
            (
                "max_inst_per_bench".to_string(),
                opt_u64(self.max_inst_per_bench),
            ),
            (
                "static_analysis".to_string(),
                Json::Bool(self.static_analysis),
            ),
            ("kmeans_batch".to_string(), opt_u64(self.kmeans_batch)),
        ])
    }

    /// Parses a spool document back into a spec.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the malformed JSON, the bad schema, or the
    /// first missing/mistyped field.
    pub fn parse(text: &str) -> Result<JobSpec, SpecError> {
        let doc = json::parse(text).map_err(SpecError::Json)?;
        Self::from_value(&doc)
    }

    /// Extracts a spec from an already-parsed document (completion
    /// records embed the spec under a `spec` key).
    pub fn from_value(doc: &Json) -> Result<JobSpec, SpecError> {
        let field = |name: &'static str| json::get(doc, name).ok_or(SpecError::Field(name));
        let str_field = |name: &'static str| {
            field(name).and_then(|v| {
                json::as_str(v)
                    .map(ToString::to_string)
                    .ok_or(SpecError::Field(name))
            })
        };
        let u64_field = |name: &'static str| {
            field(name).and_then(|v| json::as_u64(v).ok_or(SpecError::Field(name)))
        };
        let opt_u64_field = |name: &'static str| match field(name)? {
            Json::Null => Ok(None),
            v => json::as_u64(v).map(Some).ok_or(SpecError::Field(name)),
        };
        let str_list = |name: &'static str, v: &Json| -> Result<Vec<String>, SpecError> {
            json::as_arr(v)
                .ok_or(SpecError::Field(name))?
                .iter()
                .map(|item| {
                    json::as_str(item)
                        .map(ToString::to_string)
                        .ok_or(SpecError::Field(name))
                })
                .collect()
        };
        let schema = u64_field("schema")?;
        if schema != SCHEMA {
            return Err(SpecError::Schema(schema));
        }
        let suites = match field("suites")? {
            Json::Null => None,
            v => Some(str_list("suites", v)?),
        };
        let only = str_list("only", field("only")?)?;
        let static_analysis = field("static_analysis")
            .and_then(|v| json::as_bool(v).ok_or(SpecError::Field("static_analysis")))?;
        Ok(JobSpec {
            experiment: str_field("experiment")?,
            scale: str_field("scale")?,
            interval_len: u64_field("interval_len")?,
            samples: u64_field("samples")?,
            k: u64_field("k")?,
            seed: u64_field("seed")?,
            engine: str_field("engine")?,
            suites,
            only,
            max_inst_per_bench: opt_u64_field("max_inst_per_bench")?,
            static_analysis,
            kmeans_batch: opt_u64_field("kmeans_batch")?,
        })
    }

    /// FNV-1a 64 over the canonical JSON bytes: the dedup key.
    pub fn fingerprint(&self) -> u64 {
        Fnv::new().bytes(self.to_json().as_bytes()).finish()
    }

    /// The `repro` argv equivalent of this spec, *without* the
    /// server-owned flags (`--checkpoint-dir`, `--metrics-out`): the
    /// job runner appends those.
    pub fn argv(&self) -> Vec<String> {
        let mut out = vec![
            "--scale".to_string(),
            self.scale.clone(),
            "--interval".to_string(),
            self.interval_len.to_string(),
            "--samples".to_string(),
            self.samples.to_string(),
            "--k".to_string(),
            self.k.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--engine".to_string(),
            self.engine.clone(),
        ];
        if let Some(suites) = &self.suites {
            out.push("--suites".to_string());
            out.push(suites.join(","));
        }
        if !self.only.is_empty() {
            out.push("--only".to_string());
            out.push(self.only.join(","));
        }
        if let Some(budget) = self.max_inst_per_bench {
            out.push("--max-inst-per-bench".to_string());
            out.push(budget.to_string());
        }
        if !self.static_analysis {
            out.push("--no-static-analysis".to_string());
        }
        if let Some(batch) = self.kmeans_batch {
            out.push("--kmeans-batch".to_string());
            out.push(batch.to_string());
        }
        out.push(self.experiment.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> JobSpec {
        JobSpec {
            experiment: "table3".to_string(),
            scale: "tiny".to_string(),
            interval_len: 20_000,
            samples: 8,
            k: 12,
            seed: 0,
            engine: "block".to_string(),
            suites: None,
            only: vec!["face".to_string(), "finger".to_string()],
            max_inst_per_bench: None,
            static_analysis: true,
            kmeans_batch: None,
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let spec = sample();
        let parsed = JobSpec::parse(&spec.to_json()).expect("roundtrip");
        assert_eq!(parsed, spec);

        let full = JobSpec {
            suites: Some(vec!["BMW".to_string(), "int2000".to_string()]),
            max_inst_per_bench: Some(5_000_000),
            static_analysis: false,
            kmeans_batch: Some(64),
            ..sample()
        };
        let parsed = JobSpec::parse(&full.to_json()).expect("roundtrip");
        assert_eq!(parsed, full);
    }

    #[test]
    fn fingerprint_ignores_nothing_that_matters() {
        let spec = sample();
        assert_eq!(spec.fingerprint(), sample().fingerprint());
        for (label, changed) in [
            (
                "seed",
                JobSpec {
                    seed: 1,
                    ..sample()
                },
            ),
            ("k", JobSpec { k: 13, ..sample() }),
            (
                "experiment",
                JobSpec {
                    experiment: "fig4".to_string(),
                    ..sample()
                },
            ),
            (
                "only",
                JobSpec {
                    only: vec!["face".to_string()],
                    ..sample()
                },
            ),
            (
                "static",
                JobSpec {
                    static_analysis: false,
                    ..sample()
                },
            ),
        ] {
            assert_ne!(
                spec.fingerprint(),
                changed.fingerprint(),
                "{label} must change the fingerprint"
            );
        }
    }

    /// Golden value recorded before the FNV helpers were merged: the
    /// fingerprint names spool files and result directories, so it must
    /// not move.
    #[test]
    fn fingerprint_matches_its_golden_value() {
        assert_eq!(sample().fingerprint(), 0x02A80C69F65CFA96);
    }

    #[test]
    fn argv_mirrors_the_direct_invocation() {
        let argv = sample().argv();
        assert_eq!(
            argv,
            [
                "--scale",
                "tiny",
                "--interval",
                "20000",
                "--samples",
                "8",
                "--k",
                "12",
                "--seed",
                "0",
                "--engine",
                "block",
                "--only",
                "face,finger",
                "table3",
            ]
        );
        let argv = JobSpec {
            suites: Some(vec!["BMW".to_string()]),
            static_analysis: false,
            kmeans_batch: Some(32),
            max_inst_per_bench: Some(9),
            only: vec![],
            ..sample()
        }
        .argv();
        assert!(argv.windows(2).any(|w| w == ["--suites", "BMW"]));
        assert!(argv.contains(&"--no-static-analysis".to_string()));
        assert!(argv.windows(2).any(|w| w == ["--kmeans-batch", "32"]));
        assert!(argv.windows(2).any(|w| w == ["--max-inst-per-bench", "9"]));
        assert!(!argv.contains(&"--only".to_string()));
    }

    #[test]
    fn parse_rejects_damage() {
        assert!(matches!(
            JobSpec::parse("not json"),
            Err(SpecError::Json(_))
        ));
        let mut doc = sample().to_json();
        doc = doc.replace("\"schema\": 1", "\"schema\": 9");
        assert!(matches!(JobSpec::parse(&doc), Err(SpecError::Schema(9))));
        let doc = sample()
            .to_json()
            .replace("\"seed\": 0", "\"seed\": \"zero\"");
        assert!(matches!(
            JobSpec::parse(&doc),
            Err(SpecError::Field("seed"))
        ));
    }
}
