//! The one command-line flag parser: `--key value` pairs plus
//! positional arguments, shared by the `fabriccrdt-repro` CLI and the
//! `bench` binary so both reject bad input the same way — an `Err` the
//! front end prints as `error: …` with exit status 1, never a panic.

/// Parsed `--key value` pairs and positional arguments. Each caller
/// names the flags it accepts; anything else is an error, so a typo
/// never silently runs with a default.
#[derive(Debug)]
pub struct Flags {
    /// Arguments that are not flags, in order.
    pub positional: Vec<String>,
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `args` (without the program name), accepting only the
    /// flags named in `accepted` (without their `--`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag when it is not in
    /// `accepted` or has no value.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                if !accepted.contains(&key) {
                    let accepted = match accepted {
                        [] => "none".to_owned(),
                        flags => format!("--{}", flags.join(", --")),
                    };
                    return Err(format!("unknown flag --{key}; accepted: {accepted}"));
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} requires a value"))?;
                pairs.push((key.to_owned(), value.clone()));
                i += 2;
            } else {
                positional.push(args[i].clone());
                i += 1;
            }
        }
        Ok(Flags { positional, pairs })
    }

    /// The value of `--key`, the last occurrence winning.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--key` parsed as a number, `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} expects a number, got {v:?}"))
            })
            .transpose()
    }

    /// [`Flags::opt`] with a default for an absent flag.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }
}
