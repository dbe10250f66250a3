//! The one-pass differential harness against its materialized oracle.
//!
//! `diff_network` lowers each layer once, straight into the machines, and
//! counts the program-side totals as the instructions go by. The oracle in
//! `oracle/mod.rs` builds every `Program`, runs it fresh with `try_run`,
//! re-reads it, and runs the kept programs on one continuing machine at
//! the end. A change that only speeds up the harness must leave every
//! simulated statistic identical, so the two reports must be equal under
//! `==`, floating-point fields bit for bit.

mod oracle;

use bpvec_core::BitWidth;
use bpvec_dnn::layer::{Layer, LayerKind};
use bpvec_dnn::{BitwidthPolicy, Network, NetworkId};
use bpvec_isa::{diff_network, diff_network_against, LowerError, MachineConfig, Mismatch};
use bpvec_sim::{BatchRegime, ScratchpadSpec};
use oracle::materialized_diff;

const GRID: [NetworkId; 8] = [
    NetworkId::AlexNet,
    NetworkId::InceptionV1,
    NetworkId::ResNet18,
    NetworkId::ResNet50,
    NetworkId::Rnn,
    NetworkId::Lstm,
    NetworkId::VitBase,
    NetworkId::BertBase,
];

#[test]
fn one_pass_diff_equals_the_oracle_on_the_paper_grid() {
    let cfg = MachineConfig::bpvec_ddr4();
    let batches = BatchRegime::paper_default();
    for id in GRID {
        for policy in [BitwidthPolicy::Homogeneous8, BitwidthPolicy::Heterogeneous] {
            let net = Network::build(id, policy);
            let b = batches.batch_for(id);
            assert_eq!(
                diff_network(&net, cfg, b),
                materialized_diff(&net, cfg, cfg, b),
                "{id:?} {policy:?} at batch {b}"
            );
        }
    }
}

/// The two perturbed configurations of `tests/differential_validation.rs`:
/// the mismatches they raise must match the oracle's too.
#[test]
fn one_pass_diff_equals_the_oracle_under_perturbed_configs() {
    let machine_cfg = MachineConfig::bpvec_ddr4();
    let mut fast_model = machine_cfg;
    fast_model.accel.mac_units *= 2;
    let mut small_scratchpad = machine_cfg;
    small_scratchpad.accel.scratchpad = ScratchpadSpec {
        capacity_bytes: machine_cfg.accel.scratchpad.capacity_bytes / 16,
    };
    for (id, model_cfg) in [
        (NetworkId::ResNet50, fast_model),
        (NetworkId::BertBase, small_scratchpad),
    ] {
        let net = Network::build(id, BitwidthPolicy::Homogeneous8);
        let d = diff_network_against(&net, model_cfg, machine_cfg, 16);
        assert!(!d.is_clean(), "{id:?}: the perturbation must be caught");
        assert_eq!(
            d,
            materialized_diff(&net, model_cfg, machine_cfg, 16),
            "{id:?}"
        );
    }
}

/// A layer that fails to lower after it has already issued instructions:
/// its weight and state-in DMAs go out before `matmul k` overflows a
/// 32-bit field. The continuing machine has stepped through them and must
/// be restored. On RNN that is not visible in the timings: every layer
/// there is DMA-bound, so stale transfers only shift the DMA timeline, and
/// the shift cancels exactly. AlexNet's conv2 is compute-bound at batch 1,
/// so stale transfers ahead of it would change its pipelined span.
#[test]
fn a_layer_that_fails_partway_leaves_the_continuing_machine_untouched() {
    let cfg = MachineConfig::bpvec_ddr4();
    for (id, at) in [(NetworkId::Rnn, 1), (NetworkId::AlexNet, 2)] {
        let clean = Network::build(id, BitwidthPolicy::Homogeneous8);
        let mut net = clean.clone();
        let bad = Layer::new(
            "k-overflow",
            LayerKind::Recurrent {
                input_size: 1 << 32,
                hidden_size: 1,
                gates: 1,
                seq_len: 1,
            },
        )
        .with_bits(BitWidth::INT2, BitWidth::INT2);
        net.layers.insert(at, bad);

        let d = diff_network(&net, cfg, 1);
        let lower: Vec<&Mismatch> = d
            .network_mismatches
            .iter()
            .filter(|m| matches!(m, Mismatch::Lower(_)))
            .collect();
        assert!(
            matches!(
                lower[..],
                [Mismatch::Lower(LowerError::OperandTooLarge {
                    what: "matmul k",
                    ..
                })]
            ),
            "{id:?}: exactly one lowering failure, on matmul k:\n{d}"
        );
        assert!(d.layers.iter().all(|l| l.name != "k-overflow"), "{id:?}");
        assert_eq!(d.layers.len(), clean.layers.len(), "{id:?}");
        let oracle = materialized_diff(&net, cfg, cfg, 1);
        assert_eq!(d.machine_pipelined_s, oracle.machine_pipelined_s, "{id:?}");
        assert_eq!(d, oracle, "{id:?}");
        assert_eq!(
            d.machine_pipelined_s,
            diff_network(&clean, cfg, 1).machine_pipelined_s,
            "{id:?}: the failed layer must add nothing to the continuing machine"
        );
    }
}
