//! Reader for `lint-ratchet.toml` — the checked-in lint policy.
//!
//! This is a deliberately small TOML subset (sections, integer values,
//! single-line string arrays, `#` comments), enough for the ratchet
//! file without pulling in a TOML crate the offline build can't have.

/// The parsed lint policy.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum allowed panic-family call sites (`unwrap`/`expect`/
    /// `unwrap_err`/`expect_err`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!`) in
    /// `crates/serve/src` non-test code. New code may only lower it.
    pub serve_panic_ceiling: usize,
    /// Crate names whose sources must not read the wall clock.
    pub wallclock_crates: Vec<String>,
    /// Workspace-relative `.rs` paths exempt from the wall-clock rule.
    pub wallclock_allow: Vec<String>,
    /// The declared lock hierarchy, outermost level first. A lock at a
    /// later level may be acquired while an earlier one is held, never
    /// the reverse.
    pub lock_levels: Vec<LockLevel>,
}

/// One level of the lock hierarchy: its name and the receiver
/// identifiers (`foo` in `foo.lock()`) classified at this level.
#[derive(Debug, Clone)]
pub struct LockLevel {
    pub name: String,
    pub receivers: Vec<String>,
}

#[derive(Debug, PartialEq)]
enum Value {
    Int(i64),
    List(Vec<String>),
}

impl Config {
    /// Parses the ratchet file. Unknown sections or keys are an error:
    /// a typo in a policy file must not silently disable a rule.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut serve_panic_ceiling = None;
        let mut wallclock_crates = None;
        let mut wallclock_allow = None;
        let mut level_order: Option<Vec<String>> = None;
        let mut level_receivers: Vec<(String, Vec<String>)> = Vec::new();

        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: malformed section header"))?;
                section = name.trim().to_string();
                continue;
            }
            let (key, val) = parse_kv(line).map_err(|e| format!("line {lineno}: {e}"))?;
            match (section.as_str(), key.as_str(), val) {
                ("ratchet", "serve_panic_ceiling", Value::Int(n)) if n >= 0 => {
                    serve_panic_ceiling = Some(n as usize);
                }
                ("wallclock", "crates", Value::List(v)) => wallclock_crates = Some(v),
                ("wallclock", "allow", Value::List(v)) => wallclock_allow = Some(v),
                ("lock_order", "levels", Value::List(v)) => level_order = Some(v),
                ("lock_order", k, Value::List(v)) => {
                    level_receivers.push((k.to_string(), v));
                }
                (s, k, _) => {
                    return Err(format!("line {lineno}: unrecognized key `{s}.{k}`"));
                }
            }
        }

        let order = level_order.ok_or("missing [lock_order] levels")?;
        let mut lock_levels = Vec::new();
        for name in &order {
            let receivers = level_receivers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                // A level with no explicit receiver list classifies by
                // its own name.
                .unwrap_or_else(|| vec![name.clone()]);
            lock_levels.push(LockLevel {
                name: name.clone(),
                receivers,
            });
        }
        for (k, _) in &level_receivers {
            if !order.contains(k) {
                return Err(format!("lock_order.{k} is not listed in lock_order.levels"));
            }
        }

        Ok(Config {
            serve_panic_ceiling: serve_panic_ceiling
                .ok_or("missing ratchet.serve_panic_ceiling")?,
            wallclock_crates: wallclock_crates.ok_or("missing wallclock.crates")?,
            wallclock_allow: wallclock_allow.unwrap_or_default(),
            lock_levels,
        })
    }
}

fn parse_kv(line: &str) -> Result<(String, Value), String> {
    let eq = line.find('=').ok_or("expected `key = value`")?;
    let key = line[..eq].trim().to_string();
    let rest = line[eq + 1..].trim();
    if let Some(body) = rest.strip_prefix('[') {
        let close = body.rfind(']').ok_or("unterminated array")?;
        let mut items = Vec::new();
        let mut cur = &body[..close];
        loop {
            cur = cur.trim_start_matches([',', ' ', '\t']);
            if cur.is_empty() {
                break;
            }
            let inner = cur.strip_prefix('"').ok_or("array items must be quoted")?;
            let end = inner.find('"').ok_or("unterminated string")?;
            items.push(inner[..end].to_string());
            cur = &inner[end + 1..];
        }
        return Ok((key, Value::List(items)));
    }
    let num: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    let tail = rest[num.len()..].trim();
    if num.is_empty() || !(tail.is_empty() || tail.starts_with('#')) {
        return Err(format!("unsupported value `{rest}`"));
    }
    let n: i64 = num
        .parse()
        .map_err(|_| "integer out of range".to_string())?;
    Ok((key, Value::Int(n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_policy_shape() {
        let cfg = Config::parse(
            r#"
# policy
[ratchet]
serve_panic_ceiling = 42 # tighten me

[wallclock]
crates = ["entropy", "model"]
allow = []

[lock_order]
levels = ["registry", "ring"]
ring = ["ring", "ring_notify"]
"#,
        )
        .expect("parses");
        assert_eq!(cfg.serve_panic_ceiling, 42);
        assert_eq!(cfg.wallclock_crates, vec!["entropy", "model"]);
        assert!(cfg.wallclock_allow.is_empty());
        assert_eq!(cfg.lock_levels.len(), 2);
        assert_eq!(cfg.lock_levels[0].receivers, vec!["registry"]);
        assert_eq!(cfg.lock_levels[1].receivers, vec!["ring", "ring_notify"]);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = Config::parse("[ratchet]\nserve_panic_ceilnig = 3\n").unwrap_err();
        assert!(err.contains("unrecognized key"), "{err}");
    }
}
