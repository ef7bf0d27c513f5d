//! Span nesting and self time.

use slipstream_benchmark::spans::{layer_times, LayerTime, Span, Tracer};

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        cell: 0,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = [
        span(0, None, "pass", 0, 100),
        span(1, Some(0), "cell", 10, 50),
        span(2, Some(1), "core.run", 10, 30),
        span(3, Some(1), "bench.digest", 30, 45),
        span(4, Some(0), "cell", 50, 100),
        span(5, Some(4), "core.run", 60, 90),
        // Overlaps its sibling and runs past its parent: only [90, 100)
        // adds to the parent's covered time.
        span(6, Some(4), "observe.check", 80, 120),
    ];
    let t = layer_times(&spans);
    let lt = |count, total_ns, self_ns| LayerTime {
        count,
        total_ns,
        self_ns,
    };
    assert_eq!(t["pass"], lt(1, 100, 10));
    assert_eq!(t["cell"], lt(2, 90, 5 + 10));
    assert_eq!(t["core.run"], lt(2, 50, 50));
    assert_eq!(t["bench.digest"], lt(1, 15, 15));
    assert_eq!(t["observe.check"], lt(1, 40, 40));
}

#[test]
fn tracer_nests_spans_and_tags_cells() {
    let mut t = Tracer::new(true);
    t.span("pass", |t| {
        for _ in 0..2 {
            t.cell(|t| t.span("core.run", |t| t.span("bench.digest", |_| ())));
        }
    });
    let s = t.spans();
    let names: Vec<_> = s.iter().map(|x| (x.name, x.parent, x.cell)).collect();
    assert_eq!(
        names,
        [
            ("pass", None, 0),
            ("cell", Some(0), 1),
            ("core.run", Some(1), 1),
            ("bench.digest", Some(2), 1),
            ("cell", Some(0), 2),
            ("core.run", Some(4), 2),
            ("bench.digest", Some(5), 2),
        ]
    );
    for x in s {
        assert!(x.start_ns <= x.end_ns);
        if let Some(p) = x.parent {
            let p = &s[p as usize];
            assert!(
                p.start_ns <= x.start_ns && x.end_ns <= p.end_ns,
                "{x:?} escapes {p:?}"
            );
        }
    }
    let totals = t.take_totals();
    assert_eq!(totals["core.run"].1, 2);
    assert!(t.take_totals().is_empty());
}

#[test]
fn unrecorded_spans_are_still_timed() {
    let mut t = Tracer::new(false);
    t.span("core.run", |_| {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    assert!(t.spans().is_empty());
    assert!(t.total_ns("core.run") >= 2_000_000);
}
