//! Command-line plumbing shared by the experiment and benchmark binaries:
//! one flag parser ([`Flags`]) and one merge into the benchmark JSON
//! ([`merge_section`]).
//!
//! Flags are `--name VALUE` pairs and bare `--switch`es, looked up by
//! name; the first occurrence wins and unknown flags are ignored. A flag
//! that needs a value but ends the command line, or a value that does not
//! parse, is a usage error: the exiting accessors print it to stderr and
//! exit with status 2.

use gcr_cli::report::Json;
use std::str::FromStr;

/// Parsed command line of one binary (program name excluded).
#[derive(Clone, Debug)]
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// The process's command line.
    pub fn from_env() -> Flags {
        Flags::new(std::env::args().skip(1))
    }

    /// A command line from explicit arguments (program name excluded).
    fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags { args: args.into_iter().collect() }
    }

    /// True when the bare switch `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value following `flag`: `Ok(None)` when the flag is absent, a
    /// usage error when it is the last argument.
    fn try_value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => match self.args.get(i + 1) {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{flag} needs a value")),
            },
        }
    }

    /// The value following `flag` parsed as `T`; `default` when the flag
    /// is absent, a usage error when the value is missing or malformed.
    fn try_num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.try_value(flag)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: invalid value `{v}`")),
        }
    }

    /// The value following `flag`, `None` when the flag is absent; a
    /// trailing `flag` with no value exits with status 2.
    pub fn value(&self, flag: &str) -> Option<String> {
        self.try_value(flag).map(|v| v.map(str::to_owned)).unwrap_or_else(|e| usage_exit(&e))
    }

    /// The value following `flag` parsed as `T`, `default` when the flag
    /// is absent; a missing or malformed value exits with status 2.
    pub fn num<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.try_num(flag, default).unwrap_or_else(|e| usage_exit(&e))
    }
}

/// Prints a usage error to stderr and exits with status 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Merges top-level `sections` into the benchmark JSON document at `path`:
/// each one replaces the field of the same name, or is appended, and every
/// other field is kept — so binaries that share one file never erase each
/// other's results. A missing or unparsable file starts a fresh
/// `gcr-bench-sweep/v1` document.
pub fn merge_section(path: &str, sections: Vec<(&'static str, Json)>) -> std::io::Result<()> {
    let base = std::fs::read_to_string(path).ok().and_then(|t| Json::parse(&t).ok());
    let mut fields = match base {
        Some(Json::O(fields)) => fields,
        _ => vec![("schema", Json::S("gcr-bench-sweep/v1".into()))],
    };
    for (key, section) in sections {
        match fields.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = section,
            None => fields.push((key, section)),
        }
    }
    std::fs::write(path, Json::O(fields).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_switches_and_defaults() {
        let f = flags(&["--quick", "--threads", "3", "--json", "out.json"]);
        assert!(f.has("--quick"));
        assert!(!f.has("--ablation"));
        assert_eq!(f.try_num("--threads", 0usize), Ok(3));
        assert_eq!(f.try_num("--steps", 7usize), Ok(7));
        assert_eq!(f.try_value("--json"), Ok(Some("out.json")));
        assert_eq!(f.try_value("--app"), Ok(None));
    }

    #[test]
    fn malformed_number_is_a_usage_error() {
        let f = flags(&["--threads", "x"]);
        let err = f.try_num("--threads", 0usize).unwrap_err();
        assert!(err.contains("--threads") && err.contains("`x`"), "{err}");
        assert!(flags(&["--size-scale", "half"]).try_num("--size-scale", 1.0f64).is_err());
    }

    #[test]
    fn trailing_flag_without_value_is_a_usage_error() {
        let f = flags(&["--quick", "--json"]);
        assert_eq!(f.try_value("--json"), Err("--json needs a value".to_string()));
        assert!(flags(&["--threads"]).try_num("--threads", 0usize).is_err());
    }

    #[test]
    fn merge_keeps_unrelated_sections() {
        let dir = std::env::temp_dir().join(format!("gcr-bench-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        std::fs::write(
            path,
            "{\"schema\": \"gcr-bench-sweep/v1\", \"jobs\": 1, \"serve\": {\"p50_ns\": 5}}",
        )
        .unwrap();
        merge_section(path, vec![("jobs", Json::U(2)), ("exec", Json::Bool(true))]).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("jobs"), Some(&Json::U(2)));
        assert_eq!(doc.get("exec"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("serve").and_then(|s| s.get("p50_ns")), Some(&Json::U(5)));
        let Json::O(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["schema", "jobs", "serve", "exec"]);

        std::fs::remove_file(path).unwrap();
        merge_section(path, vec![("serve", Json::Null)]).unwrap();
        let fresh = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(fresh.get("schema"), Some(&Json::S("gcr-bench-sweep/v1".into())));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
