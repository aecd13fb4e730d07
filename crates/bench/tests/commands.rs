//! Every command the docs and CI name resolves: each `--bin NAME` is a
//! binary target of the workspace, and each `experiments NAME` is an
//! experiment `experiments help` lists.

use std::fs;
use std::path::Path;
use std::process::Command;

/// The identifiers that follow `key` in `text` (at a word start); a
/// placeholder such as `<name>` yields none.
fn names_after<'t>(text: &'t str, key: &str) -> Vec<&'t str> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices(key) {
        let before = text[..at].chars().next_back();
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let rest = text[at + key.len()..].trim_start_matches("-- ");
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(rest.len());
        if end > 0 {
            names.push(&rest[..end]);
        }
    }
    names
}

/// The code of a document: fenced blocks and inline spans of markdown,
/// the non-comment lines of anything else.
fn code_of(path: &str, text: &str) -> String {
    if !path.ends_with(".md") {
        let lines = text.lines().filter(|l| !l.trim_start().starts_with('#'));
        return lines.collect::<Vec<_>>().join("\n");
    }
    let mut code = String::new();
    for (i, part) in text.split("```").enumerate() {
        if i % 2 == 1 {
            code += part;
        } else {
            for span in part.split('`').skip(1).step_by(2) {
                code += span;
                code.push('\n');
            }
        }
        code.push('\n');
    }
    code
}

#[test]
fn every_command_in_the_docs_and_ci_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut bins = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let Ok(entries) = fs::read_dir(krate.expect("entry").path().join("src/bin")) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("entry").path();
            if path.is_dir() || path.extension().is_some_and(|e| e == "rs") {
                bins.push(
                    path.file_stem()
                        .expect("stem")
                        .to_string_lossy()
                        .into_owned(),
                );
            }
        }
    }
    let help = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("help")
        .output()
        .expect("launch the experiments binary");
    let help = String::from_utf8(help.stdout).expect("utf-8 help");
    let listed: Vec<&str> = help
        .split("experiments:\n")
        .nth(1)
        .expect("an experiments section")
        .lines()
        .take_while(|l| !l.is_empty())
        .filter(|l| !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(
        listed.contains(&"fig_dos") && listed.contains(&"help"),
        "{listed:?}"
    );

    let docs = [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ];
    let mut checked = 0;
    for doc in docs {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let code = code_of(doc, &text);
        for name in names_after(&code, "--bin ") {
            assert!(
                bins.iter().any(|b| b == name),
                "{doc}: `--bin {name}` is no binary"
            );
            checked += 1;
        }
        for name in names_after(&code, "experiments ") {
            assert!(
                listed.contains(&name),
                "{doc}: `experiments {name}` is no experiment"
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "only {checked} commands found");
}
