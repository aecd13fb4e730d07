//! The strict argv parser of every binary: a binary declares a [`Mode`]
//! and a [`Flag`] table, reads argv only through [`Args`], and renders
//! `help` from the two with [`usage`].

use std::{fmt::Display, str::FromStr};

use crate::DeepThermoError;

/// A mode's name, its bit in [`Flag::modes`], and its line of `help`.
pub type Mode = (&'static str, u32, &'static str);

/// One flag of the modes in `modes`. A flag whose default differs
/// between modes has one row per default.
pub struct Flag {
    /// The modes that read this row, as bits.
    pub modes: u32,
    /// The flag as typed.
    pub name: &'static str,
    /// The value's form, shown in `help` and in parse errors; empty for
    /// a switch.
    pub metavar: &'static str,
    /// The value when the flag is absent; empty when there is none.
    pub default: &'static str,
    /// Empty for the hidden flags a process re-executes itself with.
    pub help: &'static str,
}

/// The row of `name` among the `flags` of `mode`.
pub fn row<'f>(flags: &'f [Flag], mode: u32, name: &str) -> Option<&'f Flag> {
    flags.iter().find(|f| f.modes & mode != 0 && f.name == name)
}

fn mode_names(modes: &[Mode], bits: u32) -> String {
    let names: Vec<&str> = modes
        .iter()
        .filter(|m| m.1 & bits != 0)
        .map(|m| m.0)
        .collect();
    names.join(" / ")
}

/// The body of `help`: every mode, then every visible row of `flags`,
/// grouped by the modes that share it.
pub fn usage(modes: &[Mode], flags: &[Flag]) -> String {
    let mut out = String::new();
    let column = modes.iter().map(|m| m.0.len().max(4)).max().unwrap_or(4) + 5;
    for (name, _, about) in modes.iter().chain([&("help", 0, "Show this message.")]) {
        wrap(&mut out, &format!("  {name}"), about, column);
    }
    let mut section = 0;
    for f in flags.iter().filter(|f| !f.help.is_empty()) {
        if f.modes != section {
            section = f.modes;
            out += &format!("\n{} flags:\n", mode_names(modes, section));
        }
        let mut help = f.help.to_string();
        if !f.default.is_empty() {
            help += &format!(" (default {})", f.default);
        }
        let lead = format!("  {} {}", f.name, f.metavar);
        wrap(&mut out, lead.trim_end(), &help, 25);
    }
    out
}

/// Append `lead`, then `text` word-wrapped into a column starting at
/// `column`; a `lead` too wide for the column gets a line of its own.
fn wrap(out: &mut String, lead: &str, text: &str, column: usize) {
    const WIDTH: usize = 78;
    let mut line = format!("{lead:<w$}", w = column - 1);
    if line.chars().count() >= column {
        *out += &format!("{line}\n");
        line = " ".repeat(column - 1);
    }
    for word in text.split(' ') {
        let len = line.chars().count();
        if len >= column && len + 1 + word.chars().count() > WIDTH {
            *out += &format!("{line}\n");
            line = " ".repeat(column - 1);
        }
        line = format!("{line} {word}");
    }
    *out += &format!("{line}\n");
}

/// The flags one invocation gave, checked against the rows of its mode.
#[derive(Clone)]
pub struct Args {
    modes: &'static [Mode],
    flags: &'static [Flag],
    /// The mode whose rows and defaults this invocation reads.
    mode: u32,
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `argv` (the words after the mode) strictly against the rows
    /// of `mode`.
    pub fn parse(
        modes: &'static [Mode],
        flags: &'static [Flag],
        mode: u32,
        argv: &[String],
    ) -> Result<Args, DeepThermoError> {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let Some(flag) = row(flags, mode, word) else {
                return Err(DeepThermoError::Usage(format!(
                    "unknown flag {word:?} for `{}`",
                    mode_names(modes, mode)
                )));
            };
            let value = if flag.metavar.is_empty() {
                String::new()
            } else {
                match words.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => {
                        return Err(DeepThermoError::Usage(format!(
                            "{} expects {}, got no value",
                            flag.name, flag.metavar
                        )))
                    }
                }
            };
            if given.iter().any(|(name, _)| *name == flag.name) {
                return Err(DeepThermoError::Usage(format!("{} given twice", flag.name)));
            }
            given.push((flag.name, value));
        }
        Ok(Args {
            modes,
            flags,
            mode,
            given,
        })
    }

    /// The same flags, read against the rows and defaults of `mode`.
    pub fn in_mode(&self, mode: u32) -> Args {
        let mut args = self.clone();
        args.mode = mode;
        args
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// `name`'s value — as given, else its row's default — parsed as
    /// `T`; `None` when it has neither.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, DeepThermoError>
    where
        T::Err: Display,
    {
        let flag = row(self.flags, self.mode, name).expect("every flag read is a row of its mode");
        let value = match self.given.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => v.as_str(),
            None if flag.default.is_empty() => return Ok(None),
            None => flag.default,
        };
        value.parse().map(Some).map_err(|e| {
            DeepThermoError::Usage(format!(
                "{name} expects {}, got {value:?}: {e}",
                flag.metavar
            ))
        })
    }

    /// Like [`Args::opt`], for a flag the mode cannot do without.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<T, DeepThermoError>
    where
        T::Err: Display,
    {
        self.opt(name)?.ok_or_else(|| {
            DeepThermoError::Usage(format!(
                "`{}` needs {name}",
                mode_names(self.modes, self.mode)
            ))
        })
    }
}
