//! Pins of the exhaustive database build: for each vertex bound, the cell
//! count, the order-insensitive `fingerprint()`, and an order-sensitive
//! digest of the entries' canonical hashes. Any change to which cells the
//! build finds, to their hashes, to their stored accuracies or to the
//! entry order fails here.
//!
//! The v ≤ 6 pin and the full v ≤ 7 census are `#[ignore]`d; run them in
//! release mode with `cargo test --release -p codesign-nasbench -- --ignored`.

use std::time::Instant;

use codesign_nasbench::NasbenchDatabase;

/// `(max_vertices, len, fingerprint, order digest)`.
const PINS: [(usize, usize, u64, u64); 5] = [
    (2, 1, 0x4205_3c8a_9ac2_9dac, 0x95a5_0108_89e6_6ca0),
    (3, 7, 0xd37f_0395_05a9_49bd, 0x741c_26b0_2ddc_bd4b),
    (4, 91, 0x5879_e11b_bdc4_39be, 0x0c6d_c740_230f_d5cf),
    (5, 2_532, 0x5813_40de_522b_a6b3, 0xeeed_e924_24f4_ff19),
    (6, 64_542, 0xb5e9_56cf_2bd7_7a55, 0x20af_389d_18cb_53d7),
];

/// 64-bit FNV-1a over the entries' canonical hashes (little-endian bytes)
/// in entry order.
fn order_digest(db: &NasbenchDatabase) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for entry in db.iter() {
        for b in entry.spec.canonical_hash().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check_pin(max_vertices: usize) {
    let &(_, len, fingerprint, digest) = PINS
        .iter()
        .find(|pin| pin.0 == max_vertices)
        .expect("a pin for this bound");
    let db = NasbenchDatabase::exhaustive(max_vertices);
    let got = (db.len(), db.fingerprint(), order_digest(&db));
    println!(
        "v <= {max_vertices}: ({}, {:#018x}, {:#018x})",
        got.0, got.1, got.2
    );
    assert_eq!(got, (len, fingerprint, digest), "v <= {max_vertices}");
}

#[test]
fn exhaustive_builds_match_pins_up_to_5_vertices() {
    for v in 2..=5 {
        check_pin(v);
    }
}

#[test]
#[ignore = "64,542 cells; run in release with --ignored"]
fn exhaustive_build_matches_pin_at_6_vertices() {
    check_pin(6);
}

#[test]
#[ignore = "423,624 cells; run in release with --ignored"]
fn exhaustive_build_at_7_vertices_has_the_nasbench_count() {
    let start = Instant::now();
    let db = NasbenchDatabase::exhaustive(7);
    println!(
        "v <= 7: {} cells in {:.2} s",
        db.len(),
        start.elapsed().as_secs_f64()
    );
    // NASBench-101's published count of unique models.
    assert_eq!(db.len(), 423_624);
}
