//! The `exp` driver's command line: every entry's name parses, and each
//! entry rejects a flag it does not take, a flag given twice, two size
//! presets and a missing or malformed value, so a typo never silently runs
//! another size or seed. Calls only the parser; runs no experiment.

use hs_bench::experiments::{usage, Command, EXPERIMENTS, HARNESSES};
use hs_bench::{Preset, Scale};
use std::path::PathBuf;

fn parse(line: &str) -> Result<Command, String> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    Command::parse(&args)
}

#[test]
fn every_name_is_unique_and_parses() {
    let entries = || EXPERIMENTS.iter().chain(&HARNESSES);
    let names: std::collections::BTreeSet<_> = entries().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len() + HARNESSES.len());
    for experiment in entries() {
        let command = parse(&format!("{} --tiny --json-out o.json", experiment.name)).unwrap();
        assert_eq!(command.experiments()[0].name, experiment.name);
        assert_eq!(command.experiments().len(), 1);
        assert_eq!(command.preset, Preset::Tiny);
        assert_eq!(command.json_out, Some(PathBuf::from("o.json")));
        assert!(usage().contains(experiment.name));
    }
    let all = parse("all").unwrap();
    let ran: Vec<_> = all.experiments().iter().map(|e| e.name).collect();
    let paper: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(ran, paper, "`all` runs the paper entries only");
}

#[test]
fn presets_seeds_and_paths_parse() {
    let scale = |line| parse(line).map(|c| c.scale());
    let seeded = |mut scale: Scale| {
        scale.seed = 3;
        Ok(scale)
    };
    assert_eq!(scale("table4 --full"), Ok(Scale::paper()));
    assert_eq!(scale("table4 --tiny"), Ok(Scale::tiny()));
    assert_eq!(scale("table4"), Ok(Scale::quick()));
    assert_eq!(scale("table4 --seed 3"), seeded(Scale::quick()));
    assert_eq!(scale("fig1 --tiny --seed 3"), seeded(Scale::tiny()));
    assert_eq!(scale("all --seed 3 --tiny"), seeded(Scale::tiny()));
    let chaos = parse("chaos --json-out c.json --trace-out t.json").unwrap();
    assert_eq!(chaos.preset, Preset::Default);
    assert_eq!(chaos.trace_out, Some(PathBuf::from("t.json")));
    assert_eq!(parse("fleet-scale").unwrap().preset, Preset::Default);
    assert_eq!(parse("serving-sweep --tiny").unwrap().preset, Preset::Tiny);
}

#[test]
fn every_bad_command_line_is_an_error_naming_it() {
    for (line, error) in [
        ("", "missing experiment name"),
        ("table3", "unknown experiment \"table3\""),
        ("--tiny table4", "unknown experiment \"--tiny\""),
        ("table4 table2", "unknown argument \"table2\""),
        ("table4 --tinny", "unknown argument \"--tinny\""),
        ("table4 --seed", "--seed requires a value"),
        ("table4 --seed x", "--seed \"x\" is not an unsigned integer"),
        (
            "table4 --seed -1",
            "--seed \"-1\" is not an unsigned integer",
        ),
        ("table4 --seed --tiny", "--seed requires a value"),
        ("table4 --seed 3 --seed 4", "--seed given twice"),
        (
            "table4 --tiny --full",
            "--tiny and --full both select a size",
        ),
        ("table4 --tiny --tiny", "--tiny given twice"),
        ("table4 --json-out", "--json-out requires a value"),
        ("table4 --json-out --tiny", "--json-out requires a value"),
        ("table4 --json-out a --json-out b", "--json-out given twice"),
        ("table4 --trace-out t.json", "table4 takes no --trace-out"),
        ("all --trace-out t.json", "all takes no --trace-out"),
        ("chaos --tinny", "unknown argument \"--tinny\""),
        ("chaos --quick", "unknown argument \"--quick\""),
        ("chaos --trace-out", "--trace-out requires a value"),
        ("chaos --tiny --tiny", "--tiny given twice"),
        ("chaos --seed 3", "chaos takes no --seed"),
        ("fleet-scale --full", "fleet-scale takes no --full"),
        (
            "fleet-scale --trace-out t.json",
            "fleet-scale takes no --trace-out",
        ),
        ("fleet-scale --json-out", "--json-out requires a value"),
        ("serving-sweep --seed 3", "serving-sweep takes no --seed"),
        ("serving-sweep --quick", "unknown argument \"--quick\""),
        (
            "serving-sweep --json-out a --json-out b",
            "--json-out given twice",
        ),
    ] {
        assert_eq!(parse(line).unwrap_err(), error, "{line:?}");
    }
}
