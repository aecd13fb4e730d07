//! Checkpoint compatibility pins: `config_digest` literals of four
//! representative configurations, recorded once and never edited. A
//! checkpoint directory stores the digest of the configuration that wrote
//! it and resumes only under an equal one, so a change to any of these
//! numbers orphans every snapshot written before it.

use deepthermo::rewl::checkpoint::config_digest;
use deepthermo::rewl::{KernelSpec, RewlConfig};
use deepthermo::DeepThermoConfig;

#[test]
fn default_rewl_config_digest_is_pinned() {
    assert_eq!(config_digest(&RewlConfig::default()), 0xde43_17a7_3397_48f4);
}

#[test]
fn quick_demo_digest_is_pinned() {
    let cfg = DeepThermoConfig::quick_demo().rewl;
    assert_eq!(config_digest(&cfg), 0x666e_5798_712f_6cd0);
}

#[test]
fn quick_demo_deep_kernel_digest_is_pinned() {
    let mut cfg = DeepThermoConfig::quick_demo().rewl;
    cfg.kernel = KernelSpec::Deep(Box::default());
    assert_eq!(config_digest(&cfg), 0x873d_1558_0101_fecd);
}

#[test]
fn quick_demo_adaptive_rebalancing_digest_is_pinned() {
    let mut cfg = DeepThermoConfig::quick_demo().rewl;
    cfg.adaptive_windows = true;
    cfg.rebalance_every = 4;
    assert_eq!(config_digest(&cfg), 0x72cf_f9f2_1435_ab47);
}
