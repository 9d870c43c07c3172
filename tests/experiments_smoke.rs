//! Smoke tests for the experiment harness: every entry of
//! `ia_bench::EXPERIMENTS` must render its caption and table in quick
//! mode, with the marker text below. A missing marker means content was
//! lost. The quantitative shape assertions live in each experiment
//! module's own tests.

/// One marker per registry entry, in registry order.
const MARKERS: [&str; 24] = [
    "movement share",
    "FPM",
    "geomean",
    "RL",
    "max slowdown",
    "refresh reduction",
    "compression ratio",
    "vaults",
    "streams",
    "HC_first",
    "eliminated",
    "retention",
    "ChargeCache",
    "RBLA",
    "perceptron",
    "baseline",
    "coverage",
    "deflections",
    "SALP",
    "refresh savings",
    "energy saved",
    "runahead",
    "traffic cut",
    "uncorrected rate",
];

fn renders(index: usize) {
    let (name, report) = ia_bench::EXPERIMENTS[index];
    let out = report(true, &ia_bench::RunCtx::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .to_text();
    let marker = MARKERS[index];
    assert!(
        out.contains(marker),
        "{name}: missing `{marker}` in:\n{out}"
    );
    assert!(out.lines().count() >= 5, "{name}: table too short:\n{out}");
}

macro_rules! smoke {
    ($($name:ident => $index:expr),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                renders($index);
            }
        )*
    };
}

smoke!(
    e01_renders => 0,
    e02_renders => 1,
    e03_renders => 2,
    e04_renders => 3,
    e05_renders => 4,
    e06_renders => 5,
    e07_renders => 6,
    e08_renders => 7,
    e09_renders => 8,
    e10_renders => 9,
    e11_renders => 10,
    e12_renders => 11,
    e13_renders => 12,
    e14_renders => 13,
    e15_renders => 14,
    e16_renders => 15,
    e17_renders => 16,
    e18_renders => 17,
    e19_renders => 18,
    e20_renders => 19,
    e21_renders => 20,
    e22_renders => 21,
    e23_renders => 22,
    e24_renders => 23,
);
