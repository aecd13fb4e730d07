//! An exported run is served exactly as it was reported: `/v1/thermo`
//! and `/v1/sro` over a registry holding the artifact of a finished run
//! answer, bit for bit, the curves `DeepThermo::evaluate` put in the
//! report.

use deepthermo::serve::http::Request;
use deepthermo::serve::{AppState, ArtifactRegistry};
use deepthermo::telemetry::{parse_json, JsonValue};
use deepthermo::{DeepThermo, DeepThermoConfig, MaterialSpec};

#[test]
fn exported_run_is_served_bit_identically_to_its_report() {
    let mut cfg = DeepThermoConfig::quick_demo().with_seed(5);
    cfg.material = MaterialSpec::nbmotaw(2);
    let runner = DeepThermo::from_material(cfg.clone()).unwrap();
    let report = runner.run().unwrap();

    let dir = std::env::temp_dir().join(format!("dt-served-as-reported-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let artifact_dir = runner.export_artifact(&report, &dir).unwrap();
    let id = artifact_dir
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .to_string();
    let state = AppState::new(ArtifactRegistry::open(&dir).unwrap(), 16).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // The request carries the run's own grid; Display of an f64 is its
    // shortest round-trip form, so the server sees the same bits.
    let temperatures: Vec<String> = cfg.temperatures.iter().map(f64::to_string).collect();
    let body = format!(
        "{{\"artifact\":\"{id}\",\"temperatures\":[{}]}}",
        temperatures.join(",")
    );

    let thermo = post(&state, "/v1/thermo", &body);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let series = |name: &str| bits(&numbers(thermo.get(name).unwrap()));
    assert_eq!(series("temperatures"), bits(&cfg.temperatures));
    let reported = |get: fn(&deepthermo::thermo::ThermoPoint) -> f64| {
        report
            .thermo
            .iter()
            .map(|p| get(p).to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(series("u"), reported(|p| p.u));
    assert_eq!(series("cv"), reported(|p| p.cv));
    assert_eq!(series("f"), reported(|p| p.f));
    assert_eq!(series("s"), reported(|p| p.s));

    let sro = post(&state, "/v1/sro", &body);
    let m = sro.get("num_species").unwrap().as_f64().unwrap() as usize;
    let per_t: Vec<Vec<f64>> = sro
        .get("warren_cowley")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(numbers)
        .collect();
    assert_eq!(per_t.len(), cfg.temperatures.len());
    assert_eq!(report.sro_curves.len(), m * (m - 1) / 2);
    for curve in &report.sro_curves {
        let (a, b) = (curve.pair.0 as usize, curve.pair.1 as usize);
        let served: Vec<f64> = per_t.iter().map(|alpha| alpha[a * m + b]).collect();
        let reported: Vec<f64> = curve.points.iter().map(|&(_, alpha)| alpha).collect();
        assert_eq!(bits(&served), bits(&reported), "pair {}", curve.label);
    }
}

fn post(state: &AppState, target: &str, body: &str) -> JsonValue {
    let resp = state.handle(&Request {
        method: "POST".into(),
        target: target.into(),
        http11: true,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    });
    assert_eq!(resp.status, 200, "{target}: {}", resp.body);
    parse_json(&resp.body).unwrap()
}

fn numbers(v: &JsonValue) -> Vec<f64> {
    v.as_array()
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap())
        .collect()
}
