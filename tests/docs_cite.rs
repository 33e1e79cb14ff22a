//! README, DESIGN and EXPERIMENTS cite tests, examples, benches and
//! command lines. Every citation must exist: a `tests/<file>.rs::<fn>`
//! names a function in that file, an `--example` or `--bench` names a
//! target, an `orscope <cmd> --flag ...` (or `cargo run -- <cmd>
//! --flag ...`) line passes only flags the CLI parses for `<cmd>`, and a
//! `crate::path` in a table's "Implementing modules" column (DESIGN §4)
//! names a module file or an item defined where the path leads.

use std::path::{Path, PathBuf};
use std::process::Command;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// A flag no subcommand defines, passed last: the CLI names the first
/// flag it does not parse, so an error naming this one means every
/// cited flag before it parsed.
const SENTINEL: &str = "--not-a-flag-of-any-command";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// What the docs show as code: each inline code span (which may wrap
/// across lines) and each line of a fenced block, `\`-continued lines
/// joined.
fn code(doc: &str) -> Vec<String> {
    let mut spans = Vec::new();
    let (mut prose, mut fenced, mut pending) = (String::new(), false, String::new());
    let flush = |prose: &mut String, spans: &mut Vec<String>| {
        spans.extend(prose.split('`').skip(1).step_by(2).map(str::to_owned));
        prose.clear();
    };
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            flush(&mut prose, &mut spans);
            fenced = !fenced;
        } else if fenced {
            match line.strip_suffix('\\') {
                Some(head) => pending.push_str(head),
                None => spans.push(std::mem::take(&mut pending) + line),
            }
        } else {
            prose.push_str(line);
            prose.push(' ');
        }
    }
    flush(&mut prose, &mut spans);
    spans
}

/// `(command, flags)` for each CLI invocation in `line`: the word after
/// `orscope` (or after the `--` of `cargo run`) and the `--flag`s up to
/// the end of that shell command.
fn invocations(line: &str) -> Vec<(String, Vec<String>)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let mut found = Vec::new();
    for (i, &token) in tokens.iter().enumerate() {
        let cargo_run = token == "--" && tokens[..i].windows(2).any(|w| w == ["cargo", "run"]);
        if !(token == "orscope" || token.ends_with("/orscope") || cargo_run) {
            continue;
        }
        let Some(&command) = tokens.get(i + 1) else {
            continue;
        };
        if command.starts_with('-') || !command.bytes().all(|b| b.is_ascii_lowercase()) {
            continue;
        }
        let flags = tokens[i + 2..]
            .iter()
            .take_while(|t| !t.starts_with('#') && !["|", "||", "&&", ";", "&", ">"].contains(t))
            .filter(|t| t.starts_with("--"))
            .map(|t| {
                t.trim_end_matches(|c: char| !c.is_ascii_alphanumeric())
                    .to_owned()
            })
            .collect();
        found.push((command.to_owned(), flags));
    }
    found
}

/// The CLI's complaint about `command flags...`, if it is about one of
/// them. Nothing runs: the sentinel is refused before any work starts.
fn refused_flag(command: &str, flags: &[String]) -> Option<String> {
    let mut distinct: Vec<&String> = Vec::new();
    for flag in flags {
        if !distinct.contains(&flag) {
            distinct.push(flag);
        }
    }
    let output = Command::new(env!("CARGO_BIN_EXE_orscope"))
        .arg(command)
        .args(distinct.iter().flat_map(|flag| [flag.as_str(), "1"]))
        .arg(SENTINEL)
        .output()
        .expect("orscope runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let expected = format!("unknown flag {SENTINEL} ");
    (output.status.success() || !stderr.contains(&expected)).then_some(stderr)
}

/// Every `<path>tests/<file>.rs::<fn>` in `doc` whose file does not
/// define that function (paths are relative to the root, or to
/// `crates/`).
fn missing_tests(doc: &str) -> Vec<String> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut missing = Vec::new();
    for (at, _) in doc.match_indices(".rs::") {
        let start = doc[..at].rfind(|c| !path_char(c)).map_or(0, |i| i + 1);
        let path = &doc[start..at + 3];
        let rest = &doc[at + 5..];
        let item = &rest[..rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(rest.len())];
        let name = item.trim_end_matches(':').rsplit("::").next().unwrap_or("");
        if !path.contains("tests/") {
            continue;
        }
        let file = [root().join(path), root().join("crates").join(path)]
            .into_iter()
            .find(|file| file.is_file());
        let defined = file
            .and_then(|file| std::fs::read_to_string(file).ok())
            .is_some_and(|source| source.contains(&format!("fn {name}(")));
        if name.is_empty() || !defined {
            missing.push(format!("{path}::{item}"));
        }
    }
    missing
}

/// Every `--example <name>` / `--bench <name>` in `doc` that no package
/// of the workspace builds.
fn missing_targets(doc: &str) -> Vec<String> {
    let tokens: Vec<&str> = doc.split_whitespace().collect();
    let mut missing = Vec::new();
    for pair in tokens.windows(2) {
        let dir = match pair[0].trim_start_matches('`') {
            "--example" => "examples",
            "--bench" => "benches",
            _ => continue,
        };
        let name = pair[1].trim_end_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        let file = format!("{name}.rs");
        let mut packages: Vec<PathBuf> = vec![root().to_owned()];
        packages.extend(
            std::fs::read_dir(root().join("crates"))
                .expect("crates/ is readable")
                .map(|entry| entry.expect("a crate directory").path()),
        );
        if !packages
            .iter()
            .any(|package| package.join(dir).join(&file).is_file())
        {
            missing.push(format!("{} {name}", pair[0]));
        }
    }
    missing
}

/// Whether `path` (`crate::module::...::item`) names something that
/// exists: its first segment a directory under `crates/`, then module
/// files under that crate's `src/` for as long as there are, then each
/// remaining segment a `fn`, `struct`, `enum` or `mod` defined in the
/// last module file reached.
fn names_an_item(path: &str) -> bool {
    let mut segments = path.split("::");
    let krate = segments.next().unwrap_or_default().replace('_', "-");
    let mut dir = root().join("crates").join(krate).join("src");
    let Ok(mut source) = std::fs::read_to_string(dir.join("lib.rs")) else {
        return false;
    };
    let mut in_item = false;
    for segment in segments {
        let module = [
            dir.join(format!("{segment}.rs")),
            dir.join(segment).join("mod.rs"),
        ]
        .into_iter()
        .find(|module| module.is_file());
        match module {
            Some(module) if !in_item => {
                source = std::fs::read_to_string(module).expect("the module is readable");
                dir = dir.join(segment);
            }
            _ => {
                in_item = true;
                let defined = ["fn", "struct", "enum", "mod"].iter().any(|keyword| {
                    let head = format!("{keyword} {segment}");
                    source.match_indices(&head).any(|(at, _)| {
                        !source[at + head.len()..]
                            .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
                    })
                });
                if !defined {
                    return false;
                }
            }
        }
    }
    true
}

/// Every backticked path in an "Implementing modules" column of a table
/// in `doc` that names nothing ([`names_an_item`]).
fn missing_modules(doc: &str) -> Vec<String> {
    let mut missing = Vec::new();
    let mut column = None;
    for line in doc.lines() {
        if !line.starts_with('|') {
            column = None;
            continue;
        }
        let cells: Vec<&str> = line.split('|').collect();
        let Some(at) = column else {
            column = cells
                .iter()
                .position(|cell| cell.trim() == "Implementing modules");
            continue;
        };
        let spans = cells
            .get(at)
            .map_or("", |cell| cell)
            .split('`')
            .skip(1)
            .step_by(2);
        missing.extend(spans.filter(|path| !names_an_item(path)).map(str::to_owned));
    }
    missing
}

/// Every citation problem in `doc`.
fn problems(doc: &str) -> Vec<String> {
    let mut problems = missing_tests(doc);
    problems.extend(missing_targets(doc));
    problems.extend(missing_modules(doc));
    for line in code(doc) {
        for (command, flags) in invocations(&line) {
            if flags.is_empty() {
                continue;
            }
            if let Some(stderr) = refused_flag(&command, &flags) {
                problems.push(format!("`{line}`: {}", stderr.trim()));
            }
        }
    }
    problems
}

#[test]
fn every_citation_in_the_docs_exists() {
    for name in DOCS {
        let doc = std::fs::read_to_string(root().join(name)).expect("the doc is readable");
        let problems = problems(&doc);
        assert!(problems.is_empty(), "{name}:\n{}", problems.join("\n"));
    }
}

/// The check trips on each kind of stale citation and passes their live
/// twins.
#[test]
fn the_check_finds_stale_citations() {
    let stale = [
        "see `tests/gates.rs::no_such_gate`",
        "see `crates/ipspace/tests/golden_walk.rs::no_such_walk`",
        "see `tests/no_such_file.rs::every_gate_holds`",
        "`cargo run --example no_such_example`",
        "`cargo bench --bench no_such_bench`",
        "`orscope campaign --scale 3000 --shard 2`",
        "```sh\ncargo run --release -- tables --scale 500 \\\n  --full-q1\n```",
        "`target/release/orscope serve --scale 1 --epochs 1 --no-such-flag`",
        "| Fig | Implementing modules |\n|---|---|\n| Fig 1 | `resolver::trace` |",
        "| Implementing modules |\n|---|\n| `analysis::tables::table2` |",
        "| Implementing modules |\n|---|\n| `analysis::tables::Table2::no_such_fn` |",
        "| Implementing modules |\n|---|\n| `no_such_crate` |",
    ];
    for doc in stale {
        assert_eq!(problems(doc).len(), 1, "{doc}");
    }
    let live = [
        "see `tests/gates.rs::every_gate_holds`",
        "see `ipspace/tests/golden_walk.rs::walks_start_with_their_recorded_addresses`",
        "`cargo run --release --example quickstart`, `--bench scale_memory`",
        "`orscope campaign --scale 3000 --full-q1 --seed 7 --shards 2`",
        "```sh\ncargo run --release -- tables --scale 500 \\\n  --json j # --shard\n```",
        "`orscope serve --scale 1 --epochs 1 | grep x --shard`",
        "| Fig | Implementing modules |\n|---|---|\n| Fig 2 | `prober::capture`, `dns-wire` |",
        "| Implementing modules |\n|---|\n| `analysis::tables::Table2`, `core::plan::TargetPlan::shard` |",
        "| Where |\n|---|\n| `resolver::trace` |",
    ];
    for doc in live {
        assert_eq!(problems(doc), Vec::<String>::new(), "{doc}");
    }
}
