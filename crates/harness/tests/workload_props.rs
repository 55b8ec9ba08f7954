//! Property tests for the declarative-workload front end: Zipfian
//! sampler determinism and distribution sanity, spec round-tripping, and
//! parse robustness (arbitrary input must yield a typed error, never a
//! panic).

use proptest::prelude::*;
use tls_harness::workload::{WorkloadSpec, Zipf};
use tls_harness::SweepSpec;

/// Draws `count` samples and returns the fraction that landed in the
/// lowest-ranked tenth of the key space.
fn head_mass(n: u64, theta: f64, seed: u64, count: usize) -> f64 {
    let mut z = Zipf::new(n, theta, seed);
    let head = (n / 10).max(1);
    let hits = (0..count).filter(|_| z.next() < head).count();
    hits as f64 / count as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same `(n, theta, seed)` → the same sequence, draw for draw.
    #[test]
    fn zipf_is_deterministic(
        n in 1u64..4096,
        theta in 0.0f64..0.99,
        seed in any::<u64>(),
    ) {
        let mut a = Zipf::new(n, theta, seed);
        let mut b = Zipf::new(n, theta, seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next(), b.next());
        }
    }

    /// Every draw stays inside `0..n` across the full parameter space.
    #[test]
    fn zipf_stays_in_range(
        n in 1u64..4096,
        theta in 0.0f64..0.99,
        seed in any::<u64>(),
    ) {
        let mut z = Zipf::new(n, theta, seed);
        for _ in 0..256 {
            prop_assert!(z.next() < n);
        }
    }

    /// Skewed draws concentrate on low ranks: with `theta >= 0.6` the
    /// lowest tenth of the key space receives at least twice the uniform
    /// share of the mass (analytically it gets ~4x at theta 0.6; the
    /// slack absorbs sampling noise over 2000 draws).
    #[test]
    fn zipf_skews_towards_low_ranks(
        n in 256u64..4096,
        theta in 0.6f64..0.99,
        seed in any::<u64>(),
    ) {
        let skewed = head_mass(n, theta, seed, 2000);
        prop_assert!(skewed > 0.2, "head mass {skewed} too small for theta {theta}");
        let uniform = head_mass(n, 0.0, seed, 2000);
        prop_assert!(
            skewed > 1.5 * uniform,
            "skewed head mass {skewed} not above uniform {uniform}"
        );
    }

    /// A valid spec survives serialize → parse unchanged, and scaling it
    /// down for test runs keeps it valid.
    #[test]
    fn specs_round_trip_and_scale_down(
        seed in any::<u64>(),
        rows in 16u64..10_000,
        transactions in 1usize..50,
        theta in 0.0f64..0.99,
        think_ops in 0u32..64,
    ) {
        let mut spec = WorkloadSpec::example();
        spec.seed = seed;
        spec.rows = rows;
        spec.transactions = transactions;
        spec.zipf_theta = theta;
        spec.think_ops = think_ops;
        spec.scan_len = spec.scan_len.min(rows);
        spec.rows_per_epoch = spec.rows_per_epoch.min(spec.scan_len);
        spec.validate("").expect("constructed spec is valid");

        let json = serde_json::to_string_pretty(&spec).expect("spec serializes");
        let parsed = WorkloadSpec::parse(&json).expect("round trip");
        prop_assert_eq!(&parsed, &spec);
        parsed.scaled_down().validate("").expect("scaled-down spec stays valid");
    }

    /// Arbitrary input — valid JSON or not — produces `Ok` or a typed
    /// `SpecError`, never a panic.
    #[test]
    fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = WorkloadSpec::parse(&src);
    }

    /// Arbitrary bytes given as a sweep grid produce `Ok` or a typed
    /// `SweepError`, never a panic.
    #[test]
    fn sweep_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = SweepSpec::parse(&src);
    }

    /// The committed CI grid with one character replaced by any ASCII
    /// byte parses or fails with a typed error, and never panics.
    #[test]
    fn mutated_sweep_grids_never_panic(at in 0usize..4096, byte in 0u8..0x80) {
        let grid = include_str!("../specs/sweep_grid.json");
        let i = at % grid.len();
        let mutated = format!("{}{}{}", &grid[..i], byte as char, &grid[i + 1..]);
        let _ = SweepSpec::parse(&mutated);
    }

    /// A grid that repeats any of its fields is a typed error naming the
    /// field, whichever copy comes first.
    #[test]
    fn repeated_sweep_fields_are_typed_errors(line in 1usize..8, first in any::<bool>()) {
        let grid = include_str!("../specs/sweep_grid.json").trim_end();
        let field = grid.lines().nth(line).expect("a field line").trim().trim_end_matches(',');
        let key = field.split('"').nth(1).expect("a quoted key");
        let body = grid.strip_prefix('{').and_then(|g| g.strip_suffix('}')).expect("an object");
        let src = if first { format!("{{{field},{body}}}") } else { format!("{{{body},{field}}}") };
        let e = SweepSpec::parse(&src).expect_err("repeated field");
        prop_assert!(e.message.contains(&format!("duplicate key `{key}`")), "{}", e);
    }

    /// An unknown field is always reported by name.
    #[test]
    fn unknown_fields_are_named(n in any::<u16>()) {
        // `nope_<n>` can never collide with a valid field name.
        let name = format!("nope_{n}");
        prop_assert!(!WorkloadSpec::valid_fields().iter().any(|(f, _)| *f == name));
        let src = format!("{{\"{name}\": 1}}");
        let e = WorkloadSpec::parse(&src).expect_err("unknown field must error");
        prop_assert_eq!(e.field.as_deref(), Some(name.as_str()));
    }
}
