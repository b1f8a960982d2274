//! Property-based tests of the FHE backend: homomorphism of every operation,
//! NTT correctness, and consistency between the IR interpreter and
//! homomorphic execution of compiled circuits.
//!
//! Written as seeded randomized case loops (the `proptest` crate is
//! unavailable in hermetic builds); every case prints its inputs on failure
//! so a reproduction is one seed away.

use chehab::compiler::Compiler;
use chehab::datagen::LlmLikeSynthesizer;
use chehab::fhe::{poly, BfvParameters, Decryptor, Encryptor, Evaluator, FheContext, KeyGenerator};
use chehab::ir::{evaluate, Env, Ty};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

const CASES: usize = 32;

/// `decrypt(op(encrypt(x), encrypt(y))) == op(x, y)` for every evaluator
/// operation.
#[test]
fn evaluator_operations_are_homomorphic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF4E_00A);
    let ctx = FheContext::new(BfvParameters::insecure_test()).unwrap();
    let mut keygen = KeyGenerator::new(ctx.params(), 1);
    let mut enc = Encryptor::new(&ctx, &keygen.public_key());
    let dec = Decryptor::new(&ctx, &keygen.secret_key());
    let mut eval = Evaluator::new(&ctx);
    let relin = keygen.relin_keys();
    // Keys for every step the test may draw (the default key set only
    // covers powers of two).
    let galois = keygen.galois_keys(&[1, 2, 3]);
    let t = ctx.plain_modulus() as i64;

    for case in 0..CASES {
        let xs: Vec<i64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..1000))
            .collect();
        let ys: Vec<i64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..1000))
            .collect();
        let step = rng.gen_range(1..4i64);

        let a = enc.encrypt_values(&xs).unwrap();
        let b = enc.encrypt_values(&ys).unwrap();
        let len = xs.len().max(ys.len());
        let at = |v: &[i64], i: usize| v.get(i).copied().unwrap_or(0);

        let sum = dec.decrypt(&eval.add(&a, &b)).unwrap();
        let product = dec.decrypt(&eval.multiply(&a, &b, &relin)).unwrap();
        let difference = dec.decrypt(&eval.sub(&a, &b)).unwrap();
        for i in 0..len {
            let context = format!("case {case}: xs={xs:?} ys={ys:?} slot {i}");
            assert_eq!(
                sum.slots()[i] as i64,
                (at(&xs, i) + at(&ys, i)).rem_euclid(t),
                "{context}"
            );
            assert_eq!(
                product.slots()[i] as i64,
                (at(&xs, i) * at(&ys, i)).rem_euclid(t),
                "{context}"
            );
            assert_eq!(
                difference.slots()[i] as i64,
                (at(&xs, i) - at(&ys, i)).rem_euclid(t),
                "{context}"
            );
        }

        // Rotation towards slot zero behaves like a zero-filled shift over the
        // live prefix.
        let rotated = dec
            .decrypt(&eval.rotate(&a, step, &galois).unwrap())
            .unwrap();
        for i in 0..xs.len() {
            let expected = at(&xs, i + step as usize).rem_euclid(t);
            assert_eq!(
                rotated.slots()[i] as i64,
                expected,
                "case {case}: xs={xs:?} step={step} slot {i}"
            );
        }
    }
}

/// NTT-based negacyclic multiplication agrees with the schoolbook product.
#[test]
fn ntt_multiplication_matches_schoolbook() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF4E_00B);
    let tables = poly::NttTables::new(16);
    for case in 0..CASES {
        let a: Vec<u64> = (0..16).map(|_| rng.gen_range(0..1_000_000)).collect();
        let b: Vec<u64> = (0..16).map(|_| rng.gen_range(0..1_000_000)).collect();
        let pa = poly::Poly::from_coeffs(a.clone());
        let pb = poly::Poly::from_coeffs(b.clone());
        assert_eq!(
            pa.mul_ntt(&pb, &tables),
            pa.mul_naive(&pb),
            "case {case}: a={a:?} b={b:?}"
        );
    }
}

/// Compiling and homomorphically executing synthesized programs matches
/// the IR interpreter.
#[test]
fn compiled_programs_match_the_interpreter() {
    let mut executed = 0usize;
    for seed in 0u64..400 {
        if executed >= CASES {
            break;
        }
        let mut synth = LlmLikeSynthesizer::with_seed(seed);
        let program = synth.generate();
        // The same preconditions the original proptest assumed away: small
        // programs whose noise budget survives greedy compilation.
        if program.node_count() > 60 || chehab::ir::multiplicative_depth(&program) > 2 {
            continue;
        }

        let compiled = Compiler::greedy().compile("prop", &program);
        let mut env = Env::new();
        let mut inputs = HashMap::new();
        for (i, v) in program.variables().into_iter().enumerate() {
            let value = (i as i64 % 9) + 1;
            env.bind(v.clone(), value);
            inputs.insert(v.to_string(), value);
        }
        let expected = evaluate(&program, &env).unwrap();
        let live = program.ty().map(Ty::slots).unwrap_or(1);
        let report = compiled
            .session(&BfvParameters::insecure_test())
            .and_then(|session| session.run(&inputs))
            .unwrap();
        if !report.decryption_ok {
            continue;
        }
        executed += 1;
        let expected_slots: Vec<u64> = expected.slots().into_iter().take(live).collect();
        let got: Vec<u64> = report
            .outputs
            .iter()
            .copied()
            .take(expected_slots.len())
            .collect();
        assert_eq!(got, expected_slots, "seed {seed}");
    }
    assert!(
        executed >= CASES / 2,
        "too few synthesized programs survived the preconditions"
    );
}
