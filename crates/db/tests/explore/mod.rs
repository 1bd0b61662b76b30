//! One explorer for every walk over a sans-I/O core.
//!
//! A walk's [`World`] is the cores it drives, the stand-ins for what their
//! shells talk to, and the bookkeeping its invariants need. [`explore`]
//! runs every schedule of the world's actors depth-first from one thread:
//! a branch replays its schedule into a fresh world, and a state whose
//! fingerprint was seen before is not expanded again. The invariants are
//! checked after every action; the first violation is reported with the
//! schedule that reached it, each action as the world describes it.

use std::collections::HashSet;
use std::fmt::Write as _;

/// What a walk drives.
pub trait World {
    /// The actors that may act next.
    fn runnable(&self) -> Vec<usize>;
    /// Run actor `who`'s next atomic action; returns what it did.
    fn act(&mut self, who: usize) -> String;
    /// The invariants, after an action.
    fn check(&mut self) -> Result<(), String>;
    /// Everything that decides what happens next, and nothing that only
    /// counts: two states with one fingerprint have the same futures.
    fn fingerprint(&self) -> u64;
}

/// Walk every schedule of the worlds `new` makes: the number of distinct
/// states reached, or the first violation with the schedule that reached
/// it.
pub fn explore<W: World>(new: impl Fn() -> W) -> Result<usize, String> {
    let mut seen = HashSet::new();
    let mut schedule = Vec::new();
    walk(&new, new(), &mut schedule, &mut seen).map_err(|violation| {
        let mut world = new();
        let mut report = format!("violation: {violation}\nschedule:\n");
        for &who in &schedule {
            let _ = writeln!(report, "  {}", world.act(who));
        }
        report
    })?;
    Ok(seen.len())
}

fn walk<W: World>(
    new: &impl Fn() -> W,
    world: W,
    schedule: &mut Vec<usize>,
    seen: &mut HashSet<u64>,
) -> Result<(), String> {
    let mut first = Some(world);
    for who in first.as_ref().expect("the world this node was reached in").runnable() {
        let mut world = first.take().unwrap_or_else(|| {
            let mut world = new();
            for &who in schedule.iter() {
                world.act(who);
            }
            world
        });
        world.act(who);
        schedule.push(who);
        world.check()?;
        if seen.insert(world.fingerprint()) {
            walk(new, world, schedule, seen)?;
        }
        schedule.pop();
    }
    Ok(())
}
