//! Golden timing digests: the cycles, transfer count, profile and trace
//! of a fixed set of simulations, pinned bit for bit.
//!
//! Both simulator backends take their timing from one schedule pass, so
//! the interp-vs-tape differential suites cannot see that schedule drift;
//! these digests can. Each case runs on both backends and must reproduce
//! the pinned FNV-64 digest exactly. A digest only changes when the
//! timing model itself is meant to change.

use dhdl_apps::{
    Benchmark, BlackScholes, DotProduct, Gda, Gemm, KMeans, OuterProduct, Saxpy, TpchQ6,
};
use dhdl_core::{by, DType, Design, DesignBuilder, Fnv64, ParamValues, PrimOp};
use dhdl_sim::{simulate_multi, simulate_partitioned, simulate_with, Backend, Bindings, SimResult};
use dhdl_synth::partition::{Channel, CutKind, Partition, Partitioning};
use dhdl_synth::Netlist;
use dhdl_target::{MultiFpgaPlatform, Platform, Resources};

const BACKENDS: [Backend; 2] = [Backend::Interp, Backend::Tape];

/// FNV-64 over every timing-bearing field of a result (outputs excluded:
/// the functional tests pin those).
fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(r.cycles.to_bits());
    h.write_u64(r.transfers as u64);
    h.write_u64(r.profile().len() as u64);
    for e in r.profile() {
        h.write_u64(e.ctrl.index() as u64);
        h.write(e.label.as_bytes());
        h.write_u64(e.executions);
        h.write_u64(e.cycles.to_bits());
    }
    h.write_u64(r.trace().events().len() as u64);
    for e in r.trace().events() {
        h.write_u64(e.ctrl.index() as u64);
        h.write_u64(e.start.to_bits());
        h.write_u64(e.end.to_bits());
    }
    h.finish()
}

fn bench_bindings(bench: &dyn Benchmark) -> Bindings {
    let mut bindings = Bindings::new();
    for (name, data) in bench.inputs() {
        bindings = bindings.bind(&name, data);
    }
    bindings
}

fn assert_digest(label: &str, design: &Design, bindings: &Bindings, expected: u64) {
    for backend in BACKENDS {
        let r = simulate_with(backend, design, &Platform::maia(), bindings)
            .unwrap_or_else(|e| panic!("{label} on {backend}: {e}"));
        let got = digest(&r);
        assert_eq!(
            got, expected,
            "{label} on {backend}: timing digest {got:#018x}, pinned {expected:#018x}"
        );
    }
}

fn assert_bench(bench: &dyn Benchmark, params: &ParamValues, expected: u64) {
    let design = bench.build(params).expect("builds");
    let label = format!("{} {params}", bench.name());
    assert_digest(&label, &design, &bench_bindings(bench), expected);
}

fn p(pairs: &[(&str, u64)]) -> ParamValues {
    pairs
        .iter()
        .fold(ParamValues::new(), |acc, &(k, v)| acc.with(k, v))
}

#[test]
fn dotproduct_timing_is_pinned() {
    let b = DotProduct::new(1_920);
    for ((mp, ip, op), want) in [
        ((1, 4, 1), 0x7adb_1fa4_42ff_df86),
        ((0, 1, 1), 0x0835_8dd8_fd2b_b9c2),
        ((1, 8, 2), 0xb3cf_c91c_4c3f_4686),
    ] {
        let params = p(&[("ts", 96), ("ip", ip), ("op", op), ("mp", mp)]);
        assert_bench(&b, &params, want);
    }
}

#[test]
fn outerprod_timing_is_pinned() {
    let b = OuterProduct::new(128);
    for ((m1, m2), want) in [
        ((0, 0), 0xb6e1_719d_73c8_4804),
        ((1, 1), 0xcbd4_7689_246d_4c38),
    ] {
        let params = p(&[("ts1", 32), ("ts2", 64), ("p", 2), ("mp1", m1), ("mp2", m2)]);
        assert_bench(&b, &params, want);
    }
}

#[test]
fn gemm_timing_is_pinned() {
    let b = Gemm::new(32, 24, 16);
    for ((m1, m2), want) in [
        ((1, 1), 0x4d8b_a433_c9c6_790a),
        ((0, 1), 0x957b_c11a_1b0c_c4e0),
        ((1, 0), 0x2caa_d687_7d3f_38b8),
    ] {
        let params = p(&[
            ("tm", 8),
            ("tn", 12),
            ("tk", 8),
            ("p", 2),
            ("mp1", m1),
            ("mp2", m2),
        ]);
        assert_bench(&b, &params, want);
    }
}

#[test]
fn tpchq6_blackscholes_saxpy_timing_is_pinned() {
    let params = p(&[("ts", 96), ("ip", 4), ("op", 1), ("mp", 1)]);
    assert_bench(&TpchQ6::new(1_920), &params, 0xbe9e_210d_cdc7_15b7);
    let params = p(&[("ts", 96), ("ip", 2), ("mp", 1)]);
    assert_bench(&BlackScholes::new(192), &params, 0xb320_3253_17f1_c010);
    let params = p(&[("ts", 96), ("ip", 4), ("mp", 1)]);
    assert_bench(&Saxpy::new(384, 1.5), &params, 0x6932_4c8e_9603_6acd);
}

fn gda_params(rts: u64, p1: u64, p2: u64, m1p: u64, m: u64) -> ParamValues {
    p(&[
        ("rts", rts),
        ("p1", p1),
        ("p2", p2),
        ("m2p", 1),
        ("m1p", m1p),
        ("m1", m),
        ("m2", m),
    ])
}

#[test]
fn gda_timing_is_pinned() {
    let b = Gda::new(96, 8);
    for (m, want) in [(1, 0x85c1_e9a4_1c20_f35d), (0, 0x5548_9a82_55f0_5bd5)] {
        assert_bench(&b, &gda_params(12, 2, 4, 1, m), want);
    }
    let b = Gda::new(192, 16);
    assert_bench(&b, &gda_params(24, 1, 1, 1, 0), 0x6e60_ab25_4065_853a);
    assert_bench(&b, &gda_params(24, 4, 8, 2, 1), 0xc6d8_8c67_3233_86c4);
}

#[test]
fn kmeans_timing_is_pinned() {
    let b = KMeans::new(192, 4, 8);
    for (mp, want) in [(0, 0x94bc_afb4_0a54_edfe), (1, 0x969d_f28a_8b2c_2cec)] {
        let params = p(&[("pts", 24), ("dp", 2), ("pp", 3), ("mp", mp), ("mp2", 1)]);
        assert_bench(&b, &params, want);
    }
}

#[test]
fn fixed_point_map_timing_is_pinned() {
    let q = DType::fixed(true, 7, 4);
    let n = 64u64;
    let mut b = DesignBuilder::new("fixmap");
    let x = b.off_chip("x", q, &[n]);
    let y = b.off_chip("y", q, &[n]);
    b.sequential(|b| {
        let xt = b.bram("xT", q, &[n]);
        let yt = b.bram("yT", q, &[n]);
        let z = b.index_const(0);
        b.tile_load(x, xt, &[z], &[n], 1);
        b.pipe(&[by(n, 1)], 1, |b, it| {
            let v = b.load(xt, &[it[0]]);
            let c = b.constant(0.3, q);
            let w = b.add(v, c);
            b.store(yt, &[it[0]], w);
        });
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let d = b.finish().unwrap();
    let data: Vec<f64> = (0..n).map(|i| (i as f64) / 7.0 - 4.0).collect();
    assert_digest(
        "fixmap",
        &d,
        &Bindings::new().bind("x", data),
        0x3bb2_aa33_f0a3_b0a8,
    );
}

#[test]
fn priority_queue_timing_is_pinned() {
    // Pushes 4, 3, 2, 1 into a priority queue and pops them in order.
    let mut b = DesignBuilder::new("pq");
    let out = b.off_chip("out", DType::F32, &[4]);
    b.sequential(|b| {
        let q = b.priority_queue("q", DType::F32, 8);
        let ot = b.bram("ot", DType::F32, &[4]);
        b.pipe(&[by(4, 1)], 1, |b, it| {
            let four = b.constant(4.0, DType::F32);
            let v = b.sub(four, it[0]);
            b.store(q, &[], v);
        });
        b.pipe(&[by(4, 1)], 1, |b, it| {
            let v = b.load(q, &[]);
            b.store(ot, &[it[0]], v);
        });
        let z = b.index_const(0);
        b.tile_store(out, ot, &[z], &[4], 1);
    });
    let d = b.finish().unwrap();
    assert_digest("pq", &d, &Bindings::new(), 0xc499_5b32_248e_5c2f);
}

/// Re-parse `design` after a textual substitution — the route by which
/// designs the builder's validation refuses reach the simulator.
fn patched(design: &Design, from: &str, to: &str) -> Design {
    let text = dhdl_core::serialize::to_text(design);
    let out = text.replace(from, to);
    assert_ne!(text, out, "`{from}` not found in the serialized design");
    dhdl_core::serialize::from_text(&out).unwrap()
}

#[test]
fn queue_tile_buffer_timing_is_pinned() {
    // A queue as a tile buffer: the tape compiler rejects it and falls
    // back to the interpreter. The pipe fills both the queue and `t`;
    // the store is then retargeted from `t` to the (non-empty) queue.
    let mut ids = (0, 0);
    let mut b = DesignBuilder::new("pq_tile");
    let out = b.off_chip("out", DType::F32, &[4]);
    b.sequential(|b| {
        let q = b.priority_queue("q", DType::F32, 8);
        let t = b.bram("t", DType::F32, &[4]);
        ids = (q.index(), t.index());
        b.pipe(&[by(4, 1)], 1, |b, it| {
            let four = b.constant(4.0, DType::F32);
            let v = b.sub(four, it[0]);
            b.store(q, &[], v);
            b.store(t, &[it[0]], v);
        });
        let z = b.index_const(0);
        b.tile_store(out, t, &[z], &[4], 1);
    });
    let (q, t) = ids;
    let d = patched(
        &b.finish().unwrap(),
        &format!("local={t} "),
        &format!("local={q} "),
    );
    assert_digest("pq-tile", &d, &Bindings::new(), 0xd7e4_1da0_3192_2de1);
}

#[test]
fn extra_iterator_timing_is_pinned() {
    // A 2-D pipe whose counter chain is cut to one dimension after
    // serialization: the second iterator outlives its dimension and
    // reads as zero. (Pinned when the interpreter stopped panicking on
    // this shape; every other digest here predates the shared schedule.)
    let mut b = DesignBuilder::new("extra_iter");
    let y = b.off_chip("y", DType::F32, &[16]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[16]);
        b.pipe(&[by(5, 1), by(3, 1)], 1, |b, it| {
            let a = b.prim(PrimOp::Add, &[it[0], it[1]]);
            b.store(t, &[a], a);
        });
        let z = b.index_const(0);
        b.tile_store(y, t, &[z], &[16], 1);
    });
    let d = patched(&b.finish().unwrap(), "ctr=5x1,3x1 ", "ctr=5x1 ");
    assert_digest("extra-iter", &d, &Bindings::new(), 0xabc5_a725_8410_a769);
}

fn multi_digest(cycles_digest: u64, link_cycles: f64, devices_used: u32) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(cycles_digest);
    h.write_u64(link_cycles.to_bits());
    h.write_u64(u64::from(devices_used));
    h.finish()
}

#[test]
fn gda_on_two_devices_timing_is_pinned() {
    let b = Gda::new(96, 8);
    let d = b.build(&gda_params(12, 2, 4, 1, 1)).unwrap();
    let bindings = bench_bindings(&b);
    let platform = Platform::maia();
    for backend in BACKENDS {
        let m = simulate_multi(backend, &d, &platform, 2, &bindings).unwrap();
        let got = multi_digest(digest(&m.result), m.link_cycles, m.devices_used);
        assert_eq!(
            got, 0xb079_2ec4_5100_51db,
            "gda k=2 on {backend}: {got:#018x}"
        );
    }
    // A synthetic two-device cut: the placer keeps this small instance
    // whole, so the cut path is pinned with known channel traffic.
    let mem = d.find_all(|n| matches!(n.kind, dhdl_core::NodeKind::Bram(_)))[0];
    let part = |device| Partition {
        device,
        units: vec![],
        net: Netlist::default(),
        endpoints: Resources::default(),
    };
    let parts = Partitioning {
        num_devices: 2,
        cut: CutKind::LeafRanges,
        partitions: vec![part(0), part(1)],
        channels: vec![Channel {
            src: 0,
            dst: 1,
            mem,
            words: 96,
            word_bits: 32,
            transfers: 8,
            overlapped: false,
        }],
    };
    let multi = MultiFpgaPlatform::from_platform(&platform, 2);
    for backend in BACKENDS {
        let m = simulate_partitioned(backend, &d, &multi, &parts, &bindings).unwrap();
        let got = multi_digest(digest(&m.result), m.link_cycles, m.devices_used);
        assert_eq!(
            got, 0x493b_3ec4_5100_538e,
            "gda cut on {backend}: {got:#018x}"
        );
    }
}
