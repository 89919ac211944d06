//! Job-file parsing: tenants, jobs, and typed validation.
//!
//! A job file is line-oriented text. Blank lines and `#` comments are
//! skipped; every other line is a directive:
//!
//! ```text
//! tenant NAME weight=N [budget=BYTES[k|m|g]]
//! job tenant=NAME workload=NAME [scale=tiny|small|medium|large]
//!     [tool=NAME] [arrive=CYCLES] [mem-budget=BYTES[k|m|g]]
//!     [chaos-rate=F]
//! ```
//!
//! A tenant must be declared before its first job references it. Job
//! order in the file is the job's id; the fleet admits in
//! `(arrive, id)` order, so the file *is* the arrival schedule.
//! Validation is typed ([`SpecError`]) so the CLI and tests can match
//! on the exact rejection: zero weights, duplicate tenants, unknown
//! workloads/tools, and per-tenant budgets exceeding the fleet budget
//! all have their own variants.

use std::fmt;

use superpin_workloads::Scale;

/// One tenant: a name, a fair-share weight, and an optional resident
/// cap tighter than its weighted share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Human name, unique in the file.
    pub name: String,
    /// Fair-share weight (≥ 1; 0 is rejected at parse).
    pub weight: u64,
    /// Optional per-tenant resident cap in bytes.
    pub budget: Option<u64>,
}

/// One guest job: which tenant it bills to, what it runs, and its
/// per-job knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Index into [`JobFile::tenants`].
    pub tenant: u32,
    /// Workload name from the `superpin-workloads` catalog.
    pub workload: String,
    /// Workload scale.
    pub scale: Scale,
    /// Pintool name from the serve registry.
    pub tool: String,
    /// Arrival time in fleet virtual cycles.
    pub arrive: u64,
    /// Optional per-job memory budget (the run's own governor).
    pub mem_budget: Option<u64>,
    /// Optional per-job chaos-rate override of the fleet plan.
    pub chaos_rate: Option<f64>,
}

/// A parsed job file.
#[derive(Clone, Debug, PartialEq)]
pub struct JobFile {
    /// Declared tenants, file order (index = tenant id).
    pub tenants: Vec<TenantSpec>,
    /// Jobs, file order (index = job id).
    pub jobs: Vec<JobSpec>,
}

/// Typed job-file rejection. One variant per distinct mistake so CLI
/// output and tests can name the exact problem.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// A directive was missing a required `key=value` field.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// The missing key.
        field: &'static str,
    },
    /// A field's value failed to parse as the expected shape.
    InvalidValue {
        /// 1-based line number.
        line: usize,
        /// The field's key.
        field: &'static str,
        /// The offending text.
        value: String,
        /// What would have parsed.
        expected: &'static str,
    },
    /// `weight=0` — a zero-weight tenant can never be scheduled.
    ZeroWeight {
        /// 1-based line number.
        line: usize,
        /// The tenant being declared.
        tenant: String,
    },
    /// The same tenant name was declared twice.
    DuplicateTenant {
        /// 1-based line number of the second declaration.
        line: usize,
        /// The duplicated name.
        tenant: String,
    },
    /// A job referenced a tenant not (yet) declared.
    UnknownTenant {
        /// 1-based line number.
        line: usize,
        /// The undeclared name.
        tenant: String,
    },
    /// A job named a workload outside the catalog.
    UnknownWorkload {
        /// 1-based line number.
        line: usize,
        /// The unmatched name.
        workload: String,
    },
    /// A job named a tool outside the serve registry.
    UnknownTool {
        /// 1-based line number.
        line: usize,
        /// The unmatched name.
        tool: String,
    },
    /// A line began with something other than `tenant` or `job`.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The first word of the line.
        directive: String,
    },
    /// `chaos-rate` is a probability and must lie in [0, 1].
    ChaosRateOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending rate.
        value: f64,
    },
    /// A tenant's cap exceeds the whole fleet's budget — the cap could
    /// never bind and almost certainly misstates intent.
    TenantBudgetExceedsFleet {
        /// The offending tenant.
        tenant: String,
        /// Its declared cap.
        budget: u64,
        /// The fleet budget it exceeds.
        fleet: u64,
    },
    /// The file declared no jobs.
    NoJobs,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::MissingField { line, field } => {
                write!(f, "line {line}: missing required `{field}=`")
            }
            SpecError::InvalidValue {
                line,
                field,
                value,
                expected,
            } => write!(
                f,
                "line {line}: `{field}={value}` is invalid; expected {expected}"
            ),
            SpecError::ZeroWeight { line, tenant } => write!(
                f,
                "line {line}: tenant `{tenant}` has weight 0 — a zero-weight tenant \
                 can never be scheduled; the minimum weight is 1"
            ),
            SpecError::DuplicateTenant { line, tenant } => {
                write!(f, "line {line}: tenant `{tenant}` is declared twice")
            }
            SpecError::UnknownTenant { line, tenant } => write!(
                f,
                "line {line}: job references tenant `{tenant}`, which is not declared \
                 above it"
            ),
            SpecError::UnknownWorkload { line, workload } => {
                write!(f, "line {line}: unknown workload `{workload}`")
            }
            SpecError::UnknownTool { line, tool } => {
                write!(f, "line {line}: unknown tool `{tool}`")
            }
            SpecError::UnknownDirective { line, directive } => write!(
                f,
                "line {line}: unknown directive `{directive}` (expected `tenant` or `job`)"
            ),
            SpecError::ChaosRateOutOfRange { line, value } => write!(
                f,
                "line {line}: chaos-rate is a probability and must be within [0, 1] \
                 (got {value})"
            ),
            SpecError::TenantBudgetExceedsFleet {
                tenant,
                budget,
                fleet,
            } => write!(
                f,
                "tenant `{tenant}` declares budget {budget} bytes, which exceeds the \
                 fleet budget of {fleet} bytes — the cap could never bind"
            ),
            SpecError::NoJobs => write!(f, "the job file declares no jobs"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses a byte count with an optional binary `k`/`m`/`g` suffix
/// (case-insensitive), matching the `superpin` CLI's `--mem-budget`
/// grammar: `64m` → 64 MiB.
pub fn parse_bytes(text: &str) -> Option<u64> {
    let lower = text.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(digits) = lower.strip_suffix('k') {
        (digits, 1u64 << 10)
    } else if let Some(digits) = lower.strip_suffix('m') {
        (digits, 1u64 << 20)
    } else if let Some(digits) = lower.strip_suffix('g') {
        (digits, 1u64 << 30)
    } else {
        (lower.as_str(), 1u64)
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Parses a workload scale name.
pub fn parse_scale(text: &str) -> Option<Scale> {
    match text {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "medium" => Some(Scale::Medium),
        "large" => Some(Scale::Large),
        _ => None,
    }
}

/// The scale's wire name (inverse of [`parse_scale`]).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Large => "large",
    }
}

/// Splits one directive line into `key=value` fields, rejecting bare
/// words.
fn fields(line: usize, rest: &[&str]) -> Result<Vec<(String, String)>, SpecError> {
    rest.iter()
        .map(|token| {
            token
                .split_once('=')
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .ok_or_else(|| SpecError::InvalidValue {
                    line,
                    field: "field",
                    value: (*token).to_owned(),
                    expected: "`key=value` pairs after the directive",
                })
        })
        .collect()
}

/// Parses job-file text into a validated [`JobFile`].
///
/// # Errors
///
/// The first [`SpecError`] encountered, with its line number.
pub fn parse_jobs(text: &str) -> Result<JobFile, SpecError> {
    let mut file = JobFile {
        tenants: Vec::new(),
        jobs: Vec::new(),
    };
    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        match tokens[0] {
            "tenant" => {
                let name = tokens.get(1).copied().unwrap_or_default();
                if name.is_empty() || name.contains('=') {
                    return Err(SpecError::MissingField {
                        line,
                        field: "tenant name",
                    });
                }
                if file.tenants.iter().any(|t| t.name == name) {
                    return Err(SpecError::DuplicateTenant {
                        line,
                        tenant: name.to_owned(),
                    });
                }
                let mut weight = None;
                let mut budget = None;
                for (key, value) in fields(line, &tokens[2..])? {
                    match key.as_str() {
                        "weight" => {
                            let w: u64 = value.parse().map_err(|_| SpecError::InvalidValue {
                                line,
                                field: "weight",
                                value: value.clone(),
                                expected: "a positive integer",
                            })?;
                            if w == 0 {
                                return Err(SpecError::ZeroWeight {
                                    line,
                                    tenant: name.to_owned(),
                                });
                            }
                            weight = Some(w);
                        }
                        "budget" => {
                            budget = Some(parse_bytes(&value).ok_or_else(|| {
                                SpecError::InvalidValue {
                                    line,
                                    field: "budget",
                                    value: value.clone(),
                                    expected: "a byte count with optional k/m/g suffix",
                                }
                            })?);
                        }
                        _ => {
                            return Err(SpecError::InvalidValue {
                                line,
                                field: "tenant field",
                                value: key,
                                expected: "weight= or budget=",
                            })
                        }
                    }
                }
                file.tenants.push(TenantSpec {
                    name: name.to_owned(),
                    weight: weight.ok_or(SpecError::MissingField {
                        line,
                        field: "weight",
                    })?,
                    budget,
                });
            }
            "job" => {
                let mut tenant = None;
                let mut workload = None;
                let mut scale = Scale::Tiny;
                let mut tool = "icount2".to_owned();
                let mut arrive = 0u64;
                let mut mem_budget = None;
                let mut chaos_rate = None;
                for (key, value) in fields(line, &tokens[1..])? {
                    match key.as_str() {
                        "tenant" => {
                            let id = file
                                .tenants
                                .iter()
                                .position(|t| t.name == value)
                                .ok_or_else(|| SpecError::UnknownTenant {
                                    line,
                                    tenant: value.clone(),
                                })?;
                            tenant = Some(id as u32);
                        }
                        "workload" => {
                            if superpin_workloads::find(&value).is_none() {
                                return Err(SpecError::UnknownWorkload {
                                    line,
                                    workload: value,
                                });
                            }
                            workload = Some(value);
                        }
                        "scale" => {
                            scale = parse_scale(&value).ok_or_else(|| SpecError::InvalidValue {
                                line,
                                field: "scale",
                                value: value.clone(),
                                expected: "tiny|small|medium|large",
                            })?;
                        }
                        "tool" => {
                            if !superpin_tools::SERVE_TOOL_NAMES.contains(&value.as_str()) {
                                return Err(SpecError::UnknownTool { line, tool: value });
                            }
                            tool = value;
                        }
                        "arrive" => {
                            arrive = value.parse().map_err(|_| SpecError::InvalidValue {
                                line,
                                field: "arrive",
                                value: value.clone(),
                                expected: "a cycle count",
                            })?;
                        }
                        "mem-budget" => {
                            mem_budget = Some(parse_bytes(&value).ok_or_else(|| {
                                SpecError::InvalidValue {
                                    line,
                                    field: "mem-budget",
                                    value: value.clone(),
                                    expected: "a byte count with optional k/m/g suffix",
                                }
                            })?);
                        }
                        "chaos-rate" => {
                            let rate: f64 = value.parse().map_err(|_| SpecError::InvalidValue {
                                line,
                                field: "chaos-rate",
                                value: value.clone(),
                                expected: "a probability in [0, 1]",
                            })?;
                            if !(0.0..=1.0).contains(&rate) {
                                return Err(SpecError::ChaosRateOutOfRange { line, value: rate });
                            }
                            chaos_rate = Some(rate);
                        }
                        _ => {
                            return Err(SpecError::InvalidValue {
                                line,
                                field: "job field",
                                value: key,
                                expected: "tenant=, workload=, scale=, tool=, arrive=, \
                                           mem-budget=, or chaos-rate=",
                            })
                        }
                    }
                }
                file.jobs.push(JobSpec {
                    tenant: tenant.ok_or(SpecError::MissingField {
                        line,
                        field: "tenant",
                    })?,
                    workload: workload.ok_or(SpecError::MissingField {
                        line,
                        field: "workload",
                    })?,
                    scale,
                    tool,
                    arrive,
                    mem_budget,
                    chaos_rate,
                });
            }
            other => {
                return Err(SpecError::UnknownDirective {
                    line,
                    directive: other.to_owned(),
                })
            }
        }
    }
    if file.jobs.is_empty() {
        return Err(SpecError::NoJobs);
    }
    Ok(file)
}

impl JobFile {
    /// Rejects tenants whose declared cap exceeds the fleet budget —
    /// validated at run time rather than parse time because the fleet
    /// budget is a CLI knob, not a job-file field.
    ///
    /// # Errors
    ///
    /// [`SpecError::TenantBudgetExceedsFleet`] for the first offender.
    pub fn check_fleet_budget(&self, fleet: u64) -> Result<(), SpecError> {
        for tenant in &self.tenants {
            if let Some(budget) = tenant.budget {
                if budget > fleet {
                    return Err(SpecError::TenantBudgetExceedsFleet {
                        tenant: tenant.name.clone(),
                        budget,
                        fleet,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> &'static str {
        superpin_workloads::catalog()[0].name
    }

    #[test]
    fn parses_tenants_and_jobs_with_defaults() {
        let text = format!(
            "# fleet spec\n\
             tenant alpha weight=3 budget=1m\n\
             tenant beta weight=1\n\n\
             job tenant=alpha workload={w}\n\
             job tenant=beta workload={w} scale=tiny tool=icount1 arrive=500 \
             mem-budget=64k chaos-rate=0.5\n",
            w = workload()
        );
        let file = parse_jobs(&text).expect("parses");
        assert_eq!(file.tenants.len(), 2);
        assert_eq!(file.tenants[0].weight, 3);
        assert_eq!(file.tenants[0].budget, Some(1 << 20));
        assert_eq!(file.tenants[1].budget, None);
        assert_eq!(file.jobs.len(), 2);
        let first = &file.jobs[0];
        assert_eq!((first.tenant, first.arrive), (0, 0));
        assert_eq!(first.tool, "icount2");
        assert_eq!(first.scale, Scale::Tiny);
        let second = &file.jobs[1];
        assert_eq!(second.tenant, 1);
        assert_eq!(second.arrive, 500);
        assert_eq!(second.mem_budget, Some(64 << 10));
        assert_eq!(second.chaos_rate, Some(0.5));
    }

    #[test]
    fn rejects_zero_weight() {
        let text = format!("tenant a weight=0\njob tenant=a workload={}\n", workload());
        assert_eq!(
            parse_jobs(&text),
            Err(SpecError::ZeroWeight {
                line: 1,
                tenant: "a".to_owned()
            })
        );
    }

    #[test]
    fn rejects_duplicate_tenants() {
        let text = format!(
            "tenant a weight=1\ntenant a weight=2\njob tenant=a workload={}\n",
            workload()
        );
        assert_eq!(
            parse_jobs(&text),
            Err(SpecError::DuplicateTenant {
                line: 2,
                tenant: "a".to_owned()
            })
        );
    }

    #[test]
    fn rejects_unknown_references() {
        let text = format!("job tenant=ghost workload={}\n", workload());
        assert_eq!(
            parse_jobs(&text),
            Err(SpecError::UnknownTenant {
                line: 1,
                tenant: "ghost".to_owned()
            })
        );
        let text = "tenant a weight=1\njob tenant=a workload=nope\n";
        assert_eq!(
            parse_jobs(text),
            Err(SpecError::UnknownWorkload {
                line: 2,
                workload: "nope".to_owned()
            })
        );
        let text = format!(
            "tenant a weight=1\njob tenant=a workload={} tool=frobnicator\n",
            workload()
        );
        assert_eq!(
            parse_jobs(&text),
            Err(SpecError::UnknownTool {
                line: 2,
                tool: "frobnicator".to_owned()
            })
        );
    }

    #[test]
    fn rejects_malformed_fields() {
        assert_eq!(
            parse_jobs("tenant a weight=banana\n"),
            Err(SpecError::InvalidValue {
                line: 1,
                field: "weight",
                value: "banana".to_owned(),
                expected: "a positive integer",
            })
        );
        assert_eq!(
            parse_jobs("tenant a\n"),
            Err(SpecError::MissingField {
                line: 1,
                field: "weight"
            })
        );
        let text = format!(
            "tenant a weight=1\njob tenant=a workload={} chaos-rate=1.5\n",
            workload()
        );
        assert_eq!(
            parse_jobs(&text),
            Err(SpecError::ChaosRateOutOfRange {
                line: 2,
                value: 1.5
            })
        );
        let text = format!(
            "tenant a weight=1\njob tenant=a workload={} plan=on\n",
            workload()
        );
        assert_eq!(
            parse_jobs(&text),
            Err(SpecError::InvalidValue {
                line: 2,
                field: "job field",
                value: "plan".to_owned(),
                expected: "tenant=, workload=, scale=, tool=, arrive=, mem-budget=, or chaos-rate=",
            })
        );
        assert_eq!(
            parse_jobs("frobnicate everything\n"),
            Err(SpecError::UnknownDirective {
                line: 1,
                directive: "frobnicate".to_owned()
            })
        );
        assert_eq!(parse_jobs("# nothing\n"), Err(SpecError::NoJobs));
    }

    #[test]
    fn fleet_budget_check_rejects_oversized_caps() {
        let text = format!(
            "tenant a weight=1 budget=2m\njob tenant=a workload={}\n",
            workload()
        );
        let file = parse_jobs(&text).expect("parses");
        assert_eq!(file.check_fleet_budget(4 << 20), Ok(()));
        assert_eq!(
            file.check_fleet_budget(1 << 20),
            Err(SpecError::TenantBudgetExceedsFleet {
                tenant: "a".to_owned(),
                budget: 2 << 20,
                fleet: 1 << 20,
            })
        );
    }

    #[test]
    fn bytes_grammar_matches_the_superpin_cli() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("8k"), Some(8 << 10));
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("banana"), None);
        assert_eq!(parse_bytes(""), None);
    }
}
