//! The prose of EXPERIMENTS.md's Figure 10 and 11 entries, its §6.1
//! entries ("Profile-driven adaptation", "Profile accuracy"), its §6
//! "Multicast feedback suppression" and "Reliability continuum" entries
//! and its "Reconvergence after faults" entry checked
//! against the committed CSVs it describes: every number those
//! paragraphs state is read back here, at the precision the prose gives
//! it. No simulation runs; a regenerated
//! `results/` that moves one of these numbers fails the test until the
//! prose is brought back in line.

use std::path::Path;

/// The rows of `results/<name>.csv` under its header, each cell a string.
fn csv(name: &str) -> Vec<Vec<String>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{name}.csv"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .skip(1)
        .map(|line| line.split(',').map(str::to_owned).collect())
        .collect()
}

/// A cell as a number: `"10.0%"` is 0.1, `"3.002 kbps"` is 3.002.
fn num(cell: &str) -> f64 {
    match cell.strip_suffix('%') {
        Some(pct) => pct.parse::<f64>().expect("percentage") / 100.0,
        None => cell
            .trim_end_matches(" kbps")
            .parse()
            .unwrap_or_else(|_| panic!("not a number: {cell:?}")),
    }
}

/// `x` as the prose writes it, with `decimals` places.
fn fixed(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// The hot share at which a curve knees: the first row whose consistency
/// is within 0.1 of the curve's plateau. Rows are `(hot share, c)`.
fn knee(curve: &[(f64, f64)], plateau: f64) -> f64 {
    curve
        .iter()
        .find(|&&(_, c)| c >= plateau - 0.1)
        .expect("the plateau row itself qualifies")
        .0
}

/// The rows at 50–90 % hot share: the plateau the knee curves reach.
fn plateau_rows(curve: &[(f64, f64)]) -> Vec<f64> {
    curve
        .iter()
        .filter(|&&(share, _)| share >= 0.5 - 1e-9)
        .map(|&(_, c)| c)
        .collect()
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// "Figure 10 — knee with feedback (`fig10`)".
#[test]
fn fig10_prose_matches_fig10_csv() {
    let rows = csv("fig10");
    let curve: Vec<(f64, f64)> = rows.iter().map(|r| (num(&r[0]), num(&r[1]))).collect();
    let shares: Vec<String> = curve.iter().map(|&(s, _)| fixed(100.0 * s, 0)).collect();
    assert_eq!(
        shares,
        ["10", "20", "30", "40", "50", "60", "70", "80", "90"]
    );
    let c = |share: usize| curve[share / 10 - 1].1;

    // The plateau (50–90 %) never drops below 0.99, and the knee — the
    // first share within 0.1 of it — sits at the predicted 15/38 ≈ 39 %.
    let plateau = plateau_rows(&curve);
    assert!(min(&plateau) >= 0.99);
    let knee = knee(&curve, max(&plateau));
    assert!((0.35..=0.45).contains(&knee), "knee at {knee}");

    // 0.001 at 10 % with a hot backlog of 21k, 0.60 at 30 %, 0.92 at
    // 40 %, 0.994 at 50 %, then flat 0.994 → 0.991 through 90 %.
    assert_eq!(fixed(c(10), 3), "0.001");
    assert_eq!(fixed(num(&rows[0][2]) / 1000.0, 0), "21");
    assert_eq!([c(30), c(40)].map(|x| fixed(x, 2)), ["0.60", "0.92"]);
    assert_eq!(
        [c(50), max(&plateau), c(90)].map(|x| fixed(x, 3)),
        ["0.994", "0.994", "0.991"]
    );
}

/// "Figure 11 — knee curves per loss rate (`fig11`)".
#[test]
fn fig11_prose_matches_fig11_csv() {
    let rows = csv("fig11");
    let shares: Vec<f64> = rows.iter().map(|r| num(&r[0])).collect();
    let mut plateaus = Vec::new();
    let mut spreads = Vec::new();
    let mut knees = Vec::new();
    for col in 1..=5 {
        let curve: Vec<(f64, f64)> = shares
            .iter()
            .zip(&rows)
            .map(|(&s, r)| (s, num(&r[col])))
            .collect();
        // The hot/cold split barely matters once arrivals are absorbed:
        // each curve varies by < 0.07 across the 50–90 % rows.
        let plateau = plateau_rows(&curve);
        let spread = max(&plateau) - min(&plateau);
        assert!(spread < 0.07, "column {col}: spread {spread}");
        spreads.push(spread);
        plateaus.push(max(&plateau));
        knees.push(fixed(100.0 * knee(&curve, max(&plateau)), 0));
    }
    // Loss caps the attainable level: the plateaus fall with loss.
    assert!(plateaus.windows(2).all(|w| w[0] > w[1]), "{plateaus:?}");
    assert_eq!(
        plateaus.iter().map(|&p| fixed(p, 4)).collect::<Vec<_>>(),
        ["0.9998", "0.9753", "0.9345", "0.8516", "0.7363"]
    );
    // The widest spread is 0.0696, at 50 % loss.
    assert_eq!(fixed(max(&spreads), 4), "0.0696");
    assert_eq!(spreads.iter().position(|&s| s == max(&spreads)), Some(4));
    // The curves knee at 40 % hot share at 1 % loss and at 50 % from
    // 20 % loss on.
    assert_eq!(knees, ["40", "50", "50", "50", "50"]);
}

/// "Profile-driven adaptation (`adapt`) — §6.1".
#[test]
fn adapt_prose_matches_adapt_csv() {
    let rows = csv("adapt");
    let col = |c: usize| -> Vec<f64> { rows.iter().map(|r| num(&r[c])).collect() };
    let (truth, estimate, fb, hot) = (col(0), col(1), col(2), col(3));
    let (achieved, predicted) = (col(5), col(6));
    let losses: Vec<String> = truth.iter().map(|&l| fixed(100.0 * l, 0)).collect();
    assert_eq!(losses, ["1", "5", "10", "20", "30", "40", "50"]);

    // The loss estimate lands within 2 points; the largest miss is 1.8
    // points, at 40 %.
    let misses: Vec<f64> = truth
        .iter()
        .zip(&estimate)
        .map(|(t, e)| 100.0 * (e - t).abs())
        .collect();
    let worst = misses.iter().copied().fold(0.0, f64::max);
    assert!(worst <= 2.0);
    assert_eq!(fixed(worst, 1), "1.8");
    assert_eq!(misses.iter().position(|&m| m == worst), Some(5));

    // Feedback grows with loss, 3.002 → 3.664 kbps, flat from 30 %.
    assert!(fb.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(
        (fixed(fb[0], 3), fixed(fb[6], 3)),
        ("3.002".into(), "3.664".into())
    );
    assert!(fb[4..].iter().all(|&f| f == fb[6]) && fb[3] < fb[4]);

    // Hot stays above λ = 15 kbps; its least is 28.5 kbps, at 50 %.
    let least_hot = hot.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(least_hot > 15.0);
    assert_eq!((fixed(least_hot, 1), least_hot), ("28.5".into(), hot[6]));

    // Achieved consistency degrades smoothly, 0.994 → 0.558.
    assert!(achieved.windows(2).all(|w| w[0] > w[1]));
    assert_eq!(
        (fixed(achieved[0], 3), fixed(achieved[6], 3)),
        ("0.994".into(), "0.558".into())
    );

    // The prediction is conservative by 0.07–0.09 at 1–20 % loss, within
    // 0.001 at 30 %, and optimistic by 0.059 at 40 % and 0.163 at 50 %:
    // it does not track within 0.1 over the range.
    let margin: Vec<f64> = achieved
        .iter()
        .zip(&predicted)
        .map(|(a, p)| a - p)
        .collect();
    let conservative: Vec<String> = margin[..4].iter().map(|&m| fixed(m, 2)).collect();
    assert_eq!(conservative, ["0.09", "0.09", "0.09", "0.07"]);
    assert!(margin[4].abs() <= 0.001);
    assert_eq!(
        (fixed(-margin[5], 3), fixed(-margin[6], 3)),
        ("0.059".into(), "0.163".into())
    );
    assert!(margin.iter().any(|m| m.abs() > 0.1));
}

/// "Profile accuracy (`profile-accuracy`) — §6.1", the point-wise half.
#[test]
fn profile_accuracy_prose_matches_csv() {
    let rows = csv("profile_accuracy");
    assert_eq!(rows.len(), 20);
    let cells: Vec<(String, String, f64, f64, f64)> = rows
        .iter()
        .map(|r| {
            let pct = |c: usize| fixed(100.0 * num(&r[c]), 0);
            (pct(0), pct(1), num(&r[2]), num(&r[3]), num(&r[4]))
        })
        .collect();
    // Each of the three columns is rounded to 4 places.
    for (loss, share, simulated, analytic, err) in &cells {
        assert!(
            (err - (simulated - analytic).abs()).abs() <= 1.5e-4,
            "abs err column at ({loss} %, {share} %)"
        );
    }

    // Above 0.1 in 9 of 20 cells: every 45 % and 70 % feedback-share
    // cell, plus (25 % loss, 10 % share) at 0.138.
    let mut over: Vec<(&str, &str)> = cells
        .iter()
        .filter(|c| c.4 > 0.1)
        .map(|c| (c.0.as_str(), c.1.as_str()))
        .collect();
    let mut want = vec![("25", "10")];
    for loss in ["10", "25", "40", "55"] {
        want.extend([(loss, "45"), (loss, "70")]);
    }
    over.sort();
    want.sort();
    assert_eq!(over, want);
    let at = |loss: &str, share: &str| {
        cells
            .iter()
            .find(|c| c.0 == loss && c.1 == share)
            .expect("grid cell")
    };
    assert_eq!(fixed(at("25", "10").4, 3), "0.138");

    // The worst is 0.795 at (10 % loss, 45 % share): the profile predicts
    // collapse (0.189) where simulation holds 0.984.
    let worst = cells.iter().max_by(|a, b| a.4.total_cmp(&b.4)).unwrap();
    assert_eq!((worst.0.as_str(), worst.1.as_str()), ("10", "45"));
    assert_eq!(
        [worst.4, worst.3, worst.2].map(|x| fixed(x, 3)),
        ["0.795", "0.189", "0.984"]
    );

    // The other 11 cells are within 0.098.
    let rest = cells.iter().filter(|c| c.4 <= 0.1).map(|c| c.4);
    assert_eq!(fixed(rest.fold(0.0, f64::max), 3), "0.098");
}

/// "Profile accuracy (`profile-accuracy`) — §6.1", the argmax half.
#[test]
fn profile_argmax_prose_matches_csv() {
    let rows = csv("profile_argmax");
    let picks: Vec<[String; 3]> = rows
        .iter()
        .map(|r| [0, 1, 2].map(|c| fixed(100.0 * num(&r[c]), 0)))
        .collect();
    // The argmax matches at 10/40/55 % loss, at no regret...
    for (pick, row) in picks.iter().zip(&rows) {
        if pick[0] != "25" {
            assert_eq!(pick[1], pick[2], "argmax at {} % loss", pick[0]);
            assert_eq!(num(&row[3]), 0.0);
        }
    }
    // ...and at 25 % the analytic pick (25 %) costs 0.0022 against the
    // empirical best (10 %).
    let at25 = picks.iter().position(|p| p[0] == "25").expect("25 % row");
    assert_eq!([&picks[at25][1], &picks[at25][2]], ["10", "25"]);
    assert_eq!(fixed(num(&rows[at25][3]), 4), "0.0022");
    assert_eq!(picks.len(), 4);
}

/// "Multicast feedback suppression (`multicast`) — §6".
#[test]
fn multicast_prose_matches_multicast_csv() {
    let rows = csv("multicast");
    let col = |i: usize| rows.iter().map(|r| num(&r[i])).collect::<Vec<f64>>();
    let (receivers, fb, per_rcv, damped) = (col(0), col(1), col(2), col(3));
    assert_eq!(receivers, [1.0, 2.0, 4.0, 8.0, 16.0]);

    // Per-receiver feedback falls with every doubling, 779 → 369.8, to
    // 47 % of the unicast figure.
    assert!(per_rcv.windows(2).all(|w| w[1] < w[0]), "{per_rcv:?}");
    let last = rows.len() - 1;
    assert_eq!(
        [fixed(per_rcv[0], 0), fixed(per_rcv[last], 1)],
        ["779", "369.8"]
    );
    assert_eq!(fixed(100.0 * per_rcv[last] / per_rcv[0], 0), "47");

    // At 16 receivers damping drops 32 % of the scheduled requests (2,823
    // of 8,740), and total feedback grows 7.6× over unicast.
    let scheduled = fb[last] + damped[last];
    assert_eq!([damped[last], scheduled], [2823.0, 8740.0]);
    assert_eq!(fixed(100.0 * damped[last] / scheduled, 0), "32");
    assert_eq!(fixed(fb[last] / fb[0], 1), "7.6");

    // Consistency rounds to 0.99 at every group size.
    for c in col(4) {
        assert_eq!(fixed(c, 2), "0.99", "consistency {c}");
    }
}

/// "Reliability continuum (`continuum`) — §6".
#[test]
fn continuum_prose_matches_continuum_csv() {
    let rows = csv("continuum");
    let levels = [
        "best-effort",
        "announce/listen",
        "quasi (fb<=30%)",
        "reliable",
    ];
    // Four levels per loss, in that order; columns are level, loss,
    // consistency, data bytes, feedback bytes, repairs.
    assert_eq!(rows.len(), 12);
    let c = |loss: usize, level: usize| num(&rows[4 * loss + level][2]);
    let fb = |loss: usize, level: usize| num(&rows[4 * loss + level][4]);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], levels[i % 4]);
        assert_eq!(fixed(num(&row[1]), 2), ["0.10", "0.25", "0.40"][i / 4]);
    }
    let (be, al, quasi, rel) = (0, 1, 2, 3);
    let stated = |loss: usize, level: usize| fixed(c(loss, level), 3);

    // Best-effort is lowest at every loss, and reliable spends more
    // feedback bytes than quasi-reliable at every loss.
    for loss in 0..3 {
        assert!((1..4).all(|level| c(loss, be) < c(loss, level)), "{loss}");
    }
    let spend: Vec<[f64; 2]> = (0..3)
        .map(|loss| [fb(loss, rel), fb(loss, quasi)])
        .collect();
    assert_eq!(
        spend,
        [
            [69_190.0, 44_447.0],
            [77_179.0, 37_311.0],
            [52_055.0, 22_374.0]
        ]
    );

    // 10 %: 0.849 / 0.912 / 0.959 / 0.956, the feedback levels tied
    // within 0.003.
    assert_eq!(
        (0..4).map(|level| stated(0, level)).collect::<Vec<_>>(),
        ["0.849", "0.912", "0.959", "0.956"]
    );
    assert!((c(0, quasi) - c(0, rel)).abs() < 0.003);
    // 25 %: reliable leads with 0.868, quasi-reliable (0.820) sits below
    // announce/listen (0.825), best-effort 0.705.
    assert_eq!(
        [
            stated(1, rel),
            stated(1, quasi),
            stated(1, al),
            stated(1, be)
        ],
        ["0.868", "0.820", "0.825", "0.705"]
    );
    assert!((0..3).all(|level| c(1, level) < c(1, rel)));
    assert!(c(1, quasi) < c(1, al));
    // 40 %: announce/listen 0.709 beats reliable 0.667 and quasi-reliable
    // 0.618.
    assert_eq!(
        [stated(2, al), stated(2, rel), stated(2, quasi)],
        ["0.709", "0.667", "0.618"]
    );
    assert!(c(2, al) > c(2, rel) && c(2, rel) > c(2, quasi));
}

/// "Reconvergence after faults (`recovery`) — ss-chaos MTTR".
#[test]
fn recovery_prose_matches_recovery_csv() {
    let rows = csv("recovery");
    // Columns: level, partition, ttl, mttr, stale samples, fault drops,
    // E[c]. Rows pair announce/listen with quasi-reliable per cell.
    let mttr = |row: &[String]| match row[3].as_str() {
        "never" => f64::INFINITY,
        s => s.strip_suffix('s').expect("seconds").parse().expect("mttr"),
    };
    let secs = |cell: &str| -> u32 { cell.strip_suffix('s').expect("seconds").parse().expect("s") };
    assert_eq!(rows.len(), 16);
    let cells: Vec<(&[String], &[String])> = rows
        .chunks(2)
        .map(|pair| {
            assert_eq!(
                [pair[0][0].as_str(), pair[1][0].as_str()],
                ["announce/listen", "quasi (fb<=30%)"]
            );
            assert_eq!(pair[0][1..3], pair[1][1..3], "one cell per pair");
            (pair[0].as_slice(), pair[1].as_slice())
        })
        .collect();

    // Quasi-reliable reconverges faster in all eight cells (`never` is
    // infinite), and announce/listen reads `never` only at a 30 s TTL.
    for &(al, quasi) in &cells {
        assert!(mttr(quasi) < mttr(al), "{al:?} vs {quasi:?}");
        assert!(mttr(quasi).is_finite());
        if mttr(al).is_infinite() {
            assert_eq!(al[2], "30s");
        }
    }

    // Over the six cells where both reconverge, 2.2–23.4× faster; the
    // top is 234 s vs 10 s at a 15 s partition with a 30 s TTL.
    let ratios: Vec<f64> = cells
        .iter()
        .filter(|(al, _)| mttr(al).is_finite())
        .map(|(al, quasi)| mttr(al) / mttr(quasi))
        .collect();
    assert_eq!(ratios.len(), 6);
    assert_eq!(
        [fixed(min(&ratios), 1), fixed(max(&ratios), 1)],
        ["2.2", "23.4"]
    );
    let top = cells
        .iter()
        .find(|(al, _)| al[1..3] == ["15s", "30s"])
        .expect("15 s partition, 30 s TTL");
    assert_eq!([mttr(top.0), mttr(top.1)], [234.0, 10.0]);

    // Stale samples rise with partition length for each (level, TTL).
    for level in 0..2 {
        for ttl in ["30s", "90s"] {
            let series: Vec<(u32, f64)> = rows
                .iter()
                .skip(level)
                .step_by(2)
                .filter(|r| r[2] == ttl)
                .map(|r| (secs(&r[1]), num(&r[4])))
                .collect();
            assert_eq!(series.len(), 4);
            assert!(
                series
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
                "{series:?}"
            );
        }
    }

    // The prose table: level, partition, TTL, MTTR (whole seconds or
    // `never`), stale samples, E[c] to three places.
    let table = [
        ("announce/listen", "15s", "90s", "84", "573", "0.918"),
        ("quasi (fb<=30%)", "15s", "90s", "10", "223", "0.956"),
        ("announce/listen", "90s", "90s", "59", "3152", "0.787"),
        ("quasi (fb<=30%)", "90s", "90s", "27", "2941", "0.819"),
        ("announce/listen", "45s", "30s", "never", "4047", "0.731"),
        ("quasi (fb<=30%)", "45s", "30s", "46", "1401", "0.883"),
    ];
    for (level, partition, ttl, t, stale, ec) in table {
        let row = rows
            .iter()
            .find(|r| r[0] == level && r[1] == partition && r[2] == ttl)
            .unwrap_or_else(|| panic!("no row {level} {partition} {ttl}"));
        let m = mttr(row);
        let shown = if m.is_finite() {
            fixed(m, 0)
        } else {
            "never".into()
        };
        assert_eq!(
            [shown, row[4].clone(), fixed(num(&row[6]), 3)],
            [t, stale, ec],
            "{level} {partition} {ttl}"
        );
    }
}
