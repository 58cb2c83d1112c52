//! The prose of EXPERIMENTS.md's §6.1 entries ("Profile-driven
//! adaptation", "Profile accuracy") checked against the committed CSVs it
//! describes: every number those paragraphs state is read back here, at
//! the precision the prose gives it. No simulation runs; a regenerated
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
