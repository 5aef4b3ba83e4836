//! The introductory example of Fig. 1/2 of the paper (reconstructed: the
//! paper's drawing is a 15-state system in which the ordering "`g` always
//! fires before `d`" only holds once delays are taken into account).

use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};

/// Delay helper.
fn d(l: i64, u: i64) -> DelayInterval {
    DelayInterval::new(Time::new(l), Time::new(u)).expect("static delay interval")
}

/// The introductory example of Fig. 1/2 of the paper (reconstruction).
///
/// Events `a`, `b` start concurrently, `c` follows `a`, and `d` follows `c`;
/// the independent event `g` is fast. The safety property is that `g` always
/// fires before `d`: it is violated in the untimed state space but holds
/// under the delay intervals (`a`,`b` in \[2,4\], `c` in \[5,6\], `g` in \[1,1\],
/// scaled ×2 with respect to the half-unit delays printed in the paper's
/// figure).
pub fn intro_example() -> TimedTransitionSystem {
    let mut builder = TsBuilder::new("fig1-intro");
    // State encoding: (a fired?, b fired?, c fired?, g fired?, d fired?).
    let mut states = std::collections::HashMap::new();
    let mut add = |builder: &mut TsBuilder, key: (bool, bool, bool, bool, bool)| {
        *states.entry(key).or_insert_with(|| {
            let name = format!(
                "a{}b{}c{}g{}d{}",
                key.0 as u8, key.1 as u8, key.2 as u8, key.3 as u8, key.4 as u8
            );
            builder.add_state(name)
        })
    };
    let all: Vec<(bool, bool, bool, bool, bool)> = (0..32)
        .map(|i| (i & 1 != 0, i & 2 != 0, i & 4 != 0, i & 8 != 0, i & 16 != 0))
        .collect();
    for &key in &all {
        let (a, b, c, g, dd) = key;
        // Enforce structural causality: c after a, d after c.
        if (c && !a) || (dd && !c) {
            continue;
        }
        let from = add(&mut builder, key);
        if !a {
            let to = add(&mut builder, (true, b, c, g, dd));
            builder.add_transition(from, "a", to);
        }
        if !b {
            let to = add(&mut builder, (a, true, c, g, dd));
            builder.add_transition(from, "b", to);
        }
        if a && !c {
            let to = add(&mut builder, (a, b, true, g, dd));
            builder.add_transition(from, "c", to);
        }
        if !g {
            let to = add(&mut builder, (a, b, c, true, dd));
            builder.add_transition(from, "g", to);
        }
        if c && !dd {
            let to = add(&mut builder, (a, b, c, g, true));
            builder.add_transition(from, "d", to);
            if !g {
                builder.mark_violation(to, "d fired before g");
            }
        }
    }
    let initial = states[&(false, false, false, false, false)];
    builder.set_initial(initial);
    let mut timed =
        TimedTransitionSystem::new(builder.build().expect("intro example is well formed"));
    timed.set_delay_by_name("a", d(2, 4));
    timed.set_delay_by_name("b", d(2, 4));
    timed.set_delay_by_name("c", d(5, 6));
    timed.set_delay_by_name("g", d(1, 1));
    timed
}
