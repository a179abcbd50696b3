//! Differential conformance: the tape-compiled backend must be
//! *bit-identical* to the interpreter — outputs, cycles, transfers,
//! profile, trace, and errors — on every design either can run.

use dhdl_core::{by, DType, DesignBuilder, PrimOp, ReduceOp};
use dhdl_sim::{compile, simulate, simulate_compiled, Bindings, SimError};
use dhdl_target::Platform;

fn assert_identical(d: &dhdl_core::Design, bindings: &Bindings) {
    let p = Platform::maia();
    let interp = simulate(d, &p, bindings);
    let tape = simulate_compiled(d, &p, bindings);
    match (&interp, &tape) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.bit_diff(b), None, "backends diverge on `{}`", d.name());
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "backends raise different errors"),
        _ => panic!("one backend errored: interp={interp:?} tape={tape:?}"),
    }
}

fn dot_product() -> dhdl_core::Design {
    let n = 256u64;
    let tile = 64u64;
    let mut b = DesignBuilder::new("dot");
    let x = b.off_chip("x", DType::F32, &[n]);
    let y = b.off_chip("y", DType::F32, &[n]);
    let out = b.off_chip("out", DType::F32, &[1]);
    b.sequential(|b| {
        let acc = b.reg("acc", DType::F32, 0.0);
        b.outer_fold(true, &[by(n, tile)], 1, acc, ReduceOp::Add, |b, iters| {
            let i = iters[0];
            let xt = b.bram("xT", DType::F32, &[tile]);
            let yt = b.bram("yT", DType::F32, &[tile]);
            let partial = b.reg("partial", DType::F32, 0.0);
            b.parallel(|b| {
                b.tile_load(x, xt, &[i], &[tile], 1);
                b.tile_load(y, yt, &[i], &[tile], 1);
            });
            b.pipe_reduce(&[by(tile, 1)], 2, partial, ReduceOp::Add, |b, it| {
                let a = b.load(xt, &[it[0]]);
                let c = b.load(yt, &[it[0]]);
                b.mul(a, c)
            });
            partial
        });
        let ot = b.bram("outT", DType::F32, &[1]);
        b.pipe(&[by(1, 1)], 1, |b, it| {
            let a = b.load_reg(acc);
            b.store(ot, &[it[0]], a);
        });
        let z = b.index_const(0);
        b.tile_store(out, ot, &[z], &[1], 1);
    });
    b.finish().unwrap()
}

#[test]
fn dot_product_matches_bitwise() {
    let d = dot_product();
    let xs: Vec<f64> = (0..256).map(|i| (i % 7) as f64 * 0.5).collect();
    let ys: Vec<f64> = (0..256).map(|i| (i % 5) as f64 - 2.0).collect();
    assert_identical(&d, &Bindings::new().bind("x", xs).bind("y", ys));
}

#[test]
fn compile_once_run_many_inputs() {
    let d = dot_product();
    let p = Platform::maia();
    let compiled = compile(&d, &p).unwrap();
    assert!(compiled.instruction_count() > 0);
    for seed in 0..4u64 {
        let xs: Vec<f64> = (0..256).map(|i| ((i + seed) % 11) as f64 * 0.25).collect();
        let ys: Vec<f64> = (0..256)
            .map(|i| ((i * 3 + seed) % 13) as f64 - 6.0)
            .collect();
        let bindings = Bindings::new().bind("x", xs).bind("y", ys);
        let a = simulate(&d, &p, &bindings).unwrap();
        let b = compiled.run(&bindings).unwrap();
        assert_eq!(a.bit_diff(&b), None, "seed {seed}");
    }
}

#[test]
fn elementwise_map_matches_bitwise() {
    let n = 128u64;
    let mut b = DesignBuilder::new("sq");
    let x = b.off_chip("x", DType::F32, &[n]);
    let y = b.off_chip("y", DType::F32, &[n]);
    b.sequential(|b| {
        let xt = b.bram("xT", DType::F32, &[n]);
        let yt = b.bram("yT", DType::F32, &[n]);
        let z = b.index_const(0);
        b.tile_load(x, xt, &[z], &[n], 1);
        b.pipe(&[by(n, 1)], 1, |b, it| {
            let v = b.load(xt, &[it[0]]);
            let w = b.mul(v, v);
            b.store(yt, &[it[0]], w);
        });
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let d = b.finish().unwrap();
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
    assert_identical(&d, &Bindings::new().bind("x", xs));
}

#[test]
fn two_d_tiles_match_bitwise() {
    let (r, c) = (8u64, 16u64);
    let mut b = DesignBuilder::new("t2d");
    let x = b.off_chip("x", DType::F32, &[r, c]);
    let y = b.off_chip("y", DType::F32, &[r, c]);
    b.sequential(|b| {
        b.sequential_ctr(&[by(r, 4)], 1, |b, iters| {
            let i = iters[0];
            let t = b.bram("t", DType::F32, &[4, c]);
            let z = b.index_const(0);
            b.tile_load(x, t, &[i, z], &[4, c], 1);
            b.pipe(&[by(4, 1), by(c, 1)], 1, |b, it| {
                let v = b.load(t, &[it[0], it[1]]);
                let one = b.constant(1.0, DType::F32);
                let w = b.add(v, one);
                b.store(t, &[it[0], it[1]], w);
            });
            b.tile_store(y, t, &[i, z], &[4, c], 1);
        });
    });
    let d = b.finish().unwrap();
    let xs: Vec<f64> = (0..r * c).map(|i| i as f64).collect();
    assert_identical(&d, &Bindings::new().bind("x", xs));
}

#[test]
fn metapipe_schedule_matches_bitwise() {
    for toggle in [false, true] {
        let n = 2048u64;
        let tile = 256u64;
        let mut b = DesignBuilder::new("mp");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            b.outer(toggle, &[by(n, tile)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let yt = b.bram("yT", DType::F32, &[tile]);
                b.tile_load(x, xt, &[i], &[tile], 1);
                b.pipe(&[by(tile, 1)], 1, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.sqrt(v);
                    b.store(yt, &[it[0]], w);
                });
                b.tile_store(y, yt, &[i], &[tile], 1);
            });
        });
        let d = b.finish().unwrap();
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.125).collect();
        assert_identical(&d, &Bindings::new().bind("x", xs));
    }
}

#[test]
fn parallel_outer_fold_matches_bitwise() {
    // par > 1 exercises the wave schedule: untimed replica members must
    // still execute functionally, in the same linear order.
    let mut b = DesignBuilder::new("fold");
    let out = b.off_chip("out", DType::F32, &[4]);
    b.sequential(|b| {
        let acc = b.bram("acc", DType::F32, &[4]);
        b.outer_fold(true, &[by(8, 1)], 2, acc, ReduceOp::Add, |b, iters| {
            let i = iters[0];
            let t = b.bram("t", DType::F32, &[4]);
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let iv = b.prim(PrimOp::Add, &[i, it[0]]);
                b.store(t, &[it[0]], iv);
            });
            t
        });
        let z = b.index_const(0);
        b.tile_store(out, acc, &[z], &[4], 1);
    });
    let d = b.finish().unwrap();
    assert_identical(&d, &Bindings::new());
}

#[test]
fn queue_fold_accumulator_is_malformed_on_both_backends() {
    // Builder validation refuses a queue fold endpoint, so retarget the
    // accumulator at the queue in the serialized text instead.
    let mut ids = (0, 0);
    let mut b = DesignBuilder::new("qacc");
    let out = b.off_chip("out", DType::F32, &[4]);
    b.sequential(|b| {
        let q = b.priority_queue("q", DType::F32, 8);
        let acc = b.bram("acc", DType::F32, &[4]);
        ids = (q.index(), acc.index());
        b.outer_fold(true, &[by(8, 1)], 2, acc, ReduceOp::Add, |b, iters| {
            let t = b.bram("t", DType::F32, &[4]);
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let iv = b.prim(PrimOp::Add, &[iters[0], it[0]]);
                b.store(t, &[it[0]], iv);
            });
            t
        });
        let z = b.index_const(0);
        b.tile_store(out, acc, &[z], &[4], 1);
    });
    let (q, acc) = ids;
    let text = dhdl_core::serialize::to_text(&b.finish().unwrap());
    let patched = text.replace(&format!(":{acc}:Add"), &format!(":{q}:Add"));
    assert_ne!(text, patched, "fold not found in the serialized design");
    let d = dhdl_core::serialize::from_text(&patched).unwrap();
    let p = Platform::maia();
    let r = simulate(&d, &p, &Bindings::new());
    assert!(matches!(r, Err(SimError::Malformed(_))), "{r:?}");
    assert!(compile(&d, &p).is_ok(), "a queue fold compiles to an abort");
    assert_identical(&d, &Bindings::new());
}

#[test]
fn priority_queue_matches_bitwise() {
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
    assert_identical(&d, &Bindings::new());
}

#[test]
fn mux_and_fixed_point_match_bitwise() {
    let n = 64u64;
    let mut b = DesignBuilder::new("fx");
    let x = b.off_chip("x", DType::fixed(true, 10, 6), &[n]);
    let y = b.off_chip("y", DType::fixed(true, 10, 6), &[n]);
    b.sequential(|b| {
        let ty = DType::fixed(true, 10, 6);
        let xt = b.bram("xT", ty, &[n]);
        let yt = b.bram("yT", ty, &[n]);
        let z = b.index_const(0);
        b.tile_load(x, xt, &[z], &[n], 1);
        b.pipe(&[by(n, 1)], 1, |b, it| {
            let v = b.load(xt, &[it[0]]);
            let thresh = b.constant(3.5, ty);
            let sel = b.prim(PrimOp::Gt, &[v, thresh]);
            let half = b.constant(0.5, ty);
            let scaled = b.mul(v, half);
            let picked = b.mux(sel, scaled, v);
            b.store(yt, &[it[0]], picked);
        });
        b.tile_store(y, yt, &[z], &[n], 1);
    });
    let d = b.finish().unwrap();
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.17 - 3.0).collect();
    assert_identical(&d, &Bindings::new().bind("x", xs));
}

#[test]
fn runtime_out_of_bounds_error_matches() {
    let mut b = DesignBuilder::new("oob");
    let x = b.off_chip("x", DType::F32, &[8]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[8]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[8], 1);
        b.pipe(&[by(8, 1)], 1, |b, it| {
            let v = b.load(t, &[it[0]]);
            let w = b.load(t, &[v]);
            b.store(t, &[it[0]], w);
        });
    });
    let d = b.finish().unwrap();
    // Both the failing case (address 100 out of 8) and a passing one.
    assert_identical(&d, &Bindings::new().bind("x", vec![100.0; 8]));
    assert_identical(&d, &Bindings::new().bind("x", vec![3.0; 8]));
}

#[test]
fn binding_errors_match() {
    let mut b = DesignBuilder::new("bad");
    let x = b.off_chip("x", DType::F32, &[16]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[16]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[16], 1);
    });
    let d = b.finish().unwrap();
    // Shape mismatch.
    assert_identical(&d, &Bindings::new().bind("x", vec![1.0; 3]));
    // Unknown binding name.
    assert_identical(&d, &Bindings::new().bind("nope", vec![1.0; 16]));
}

#[test]
fn unknown_output_lists_names_on_both_backends() {
    let mut b = DesignBuilder::new("out");
    let x = b.off_chip("x", DType::F32, &[4]);
    b.sequential(|b| {
        let t = b.bram("t", DType::F32, &[4]);
        let z = b.index_const(0);
        b.tile_load(x, t, &[z], &[4], 1);
    });
    let d = b.finish().unwrap();
    let p = Platform::maia();
    for r in [
        simulate(&d, &p, &Bindings::new()).unwrap(),
        simulate_compiled(&d, &p, &Bindings::new()).unwrap(),
    ] {
        let err = r.output("nope").unwrap_err();
        match err {
            SimError::UnknownOutput { name, available } => {
                assert_eq!(name, "nope");
                assert_eq!(available, vec!["x".to_string()]);
            }
            other => panic!("expected UnknownOutput, got {other:?}"),
        }
    }
}
