//! The benchmark's own arithmetic: percentile selection, self time over
//! overlapping worker spans, ratios with their bases, and the follow-up
//! op stream's shape.

use cajade_perfbench::spans::{analyse, union_len, Span};
use cajade_perfbench::stats::{beyond, median, percentile, tail_quantile, Ratio, Samples};
use cajade_perfbench::workload::{followup_stream, Class};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5), 5.0);
    assert_eq!(percentile(&v, 0.9), 9.0);
    assert_eq!(percentile(&v, 1.0), 10.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&[7.0], 0.5), 7.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
    assert_eq!(beyond(100, 0.9), 10);
    assert_eq!(beyond(100, 0.95), 5);
    assert_eq!(tail_quantile(100), Some(0.9));
    // 99 samples: p90 leaves 9, so the tail falls back to p75.
    assert_eq!(beyond(99, 0.9), 9);
    assert_eq!(tail_quantile(99), Some(0.75));
    assert_eq!(tail_quantile(200), Some(0.95));
    assert_eq!(tail_quantile(1000), Some(0.99));
    // Below 40 samples not even p75 has ten beyond it.
    assert_eq!(tail_quantile(40), Some(0.75));
    assert_eq!(tail_quantile(39), None);
    assert_eq!(tail_quantile(0), None);
}

#[test]
fn summary_states_counts_and_counts_missed_samples_as_slowest() {
    let mut s = Samples::default();
    for v in 1..=100 {
        s.push(f64::from(v));
    }
    let sum = s.summary().unwrap();
    assert_eq!(sum.n, 100);
    assert_eq!(sum.p50, 50.0);
    let tail = sum.tail.unwrap();
    assert_eq!((tail.q, tail.value, tail.beyond), (0.9, 90.0, 10));
    // A failed op misses every limit: it sorts last and shifts p50 up.
    s.push_missed();
    s.push_missed();
    let sum = s.summary().unwrap();
    assert_eq!(sum.n, 102);
    assert_eq!(sum.p50, 51.0);
    assert!(sum.p90.is_finite());
    assert!(Samples::default().summary().is_none());
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        trace: 1,
        name: "x",
        start,
        end,
    }
}

#[test]
fn union_counts_overlap_once() {
    assert_eq!(union_len(&mut []), 0);
    assert_eq!(union_len(&mut [(0, 10), (5, 15)]), 15);
    assert_eq!(union_len(&mut [(20, 30), (0, 10), (5, 8)]), 20);
    assert_eq!(union_len(&mut [(0, 10), (10, 20)]), 20);
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_worker_children() {
    // A 100 ns stage with two workers: children [10, 60) and [20, 90)
    // overlap on [20, 60); their union covers 80 ns.
    let spans = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 10, 60),
        span(3, Some(1), 20, 90),
    ];
    let t = analyse(&spans);
    assert_eq!(t[&1].self_ns, 20);
    assert_eq!(t[&2].self_ns, 50);
    assert_eq!(t[&3].self_ns, 70);
    // Wall shares: the stage keeps its 20 ns; the 80 covered ns are split
    // 50:70 between the workers, so the tree sums to the stage's wall.
    assert!((t[&1].self_wall_ns - 20.0).abs() < 1e-9);
    assert!((t[&2].self_wall_ns - 80.0 * 50.0 / 120.0).abs() < 1e-9);
    assert!((t[&3].self_wall_ns - 80.0 * 70.0 / 120.0).abs() < 1e-9);
    let total: f64 = t.values().map(|x| x.self_wall_ns).sum();
    assert!((total - 100.0).abs() < 1e-9);
}

#[test]
fn nested_wall_shares_sum_to_the_root() {
    // Root 0..100; sequential child A 0..40; fan-out stage 40..100 with
    // two fully overlapping workers 40..100, one of which has a child.
    let spans = vec![
        span(1, None, 0, 100),
        span(2, Some(1), 0, 40),
        span(3, Some(1), 40, 100),
        span(4, Some(3), 40, 100),
        span(5, Some(3), 40, 100),
        span(6, Some(5), 70, 100),
    ];
    let t = analyse(&spans);
    assert_eq!(t[&1].self_ns, 0);
    assert_eq!(t[&3].self_ns, 0);
    assert_eq!(t[&5].self_ns, 30);
    // Each worker gets half of the stage's 60 ns; worker 5 passes half of
    // its 30 allotted ns on to its child.
    assert!((t[&4].self_wall_ns - 30.0).abs() < 1e-9);
    assert!((t[&5].self_wall_ns - 15.0).abs() < 1e-9);
    assert!((t[&6].self_wall_ns - 15.0).abs() < 1e-9);
    let total: f64 = t.values().map(|x| x.self_wall_ns).sum();
    assert!((total - 100.0).abs() < 1e-9);
}

#[test]
fn children_are_clipped_to_their_parent() {
    let spans = vec![span(1, None, 0, 50), span(2, Some(1), 40, 80)];
    let t = analyse(&spans);
    assert_eq!(t[&1].self_ns, 40);
}

#[test]
fn ratios_keep_their_base() {
    let r = Ratio::hit_ratio(3, 1);
    assert_eq!((r.num, r.den, r.value()), (3.0, 4.0, 0.75));
    assert_eq!(format!("{r}"), "0.750 (3/4)");
    // Pruned over (pruned + evaluated).
    let p = Ratio::share(25.0, 75.0);
    assert_eq!(p.value(), 0.25);
    // Busy over wall × workers.
    let e = Ratio::efficiency(150.0, 100.0, 2);
    assert_eq!((e.den, e.value()), (200.0, 0.75));
    // Pooling adds bases; it does not average the ratios.
    let mut pooled = Ratio::hit_ratio(1, 0);
    pooled.add(Ratio::hit_ratio(0, 3));
    assert_eq!(pooled.value(), 0.25);
    assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
}

#[test]
fn followup_stream_is_round_robin_with_a_tenth_repeats() {
    let pairs = |groups: &[&str]| {
        let mut v = Vec::new();
        for a in groups {
            for b in groups {
                if a != b {
                    v.push((a.to_string(), b.to_string()));
                }
            }
        }
        v
    };
    let sessions = vec![
        pairs(&["a", "b", "c", "d", "e"]),
        pairs(&["a", "b", "c", "d", "e"]),
        pairs(&["a", "b", "c", "d"]),
    ];
    let stream = followup_stream(&sessions, 7);
    let warm: Vec<_> = stream.iter().filter(|(_, c)| *c == Class::Warm).collect();
    // Every question except each session's warm-up, exactly once.
    assert_eq!(warm.len(), 19 + 19 + 11);
    let mut unique: Vec<_> = warm.iter().map(|(q, _)| q.clone()).collect();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), warm.len());
    // Round-robin while every session has questions left.
    let first: Vec<usize> = warm.iter().take(6).map(|((q, _, _), _)| *q).collect();
    assert_eq!(first, vec![0, 1, 2, 0, 1, 2]);
    // Repeats only re-ask questions asked earlier in the stream (or the
    // warm-ups), and make up about a tenth of it.
    let repeats = stream.len() - warm.len();
    assert!(repeats > 0 && (repeats as f64) < 0.25 * stream.len() as f64);
    let mut seen: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(q, p)| (q, p[0].0.clone(), p[0].1.clone()))
        .collect();
    for (q, class) in &stream {
        match class {
            Class::Warm => seen.push(q.clone()),
            Class::Repeat => assert!(seen.contains(q)),
            other => panic!("unexpected class {other:?}"),
        }
    }
    // The same seed gives the same stream.
    assert_eq!(followup_stream(&sessions, 7), stream);
}
