//! Greedy shrinking: reduce a failing case to a 1-minimal repro
//! (removing any single remaining part makes the failure vanish).

/// Shrinks `case` by deleting elements of the list `parts` selects
/// (fault events, hostile ops) while `fails` still holds. Each round
/// tries deleting one element at a time and keeps the first deletion
/// that still fails, until no single deletion preserves the failure.
/// Runs `O(parts²)` cases in the worst case — sweeps generate at most a
/// handful of parts, so this is cheap.
///
/// A case that does not fail is returned unchanged.
pub(crate) fn shrink_by_removal<C: Clone, T>(
    case: &C,
    parts: impl Fn(&mut C) -> &mut Vec<T>,
    fails: impl Fn(&C) -> bool,
) -> C {
    let mut best = case.clone();
    if !fails(&best) {
        return best;
    }
    'rounds: loop {
        for i in 0..parts(&mut best).len() {
            let mut cand = best.clone();
            parts(&mut cand).remove(i);
            if fails(&cand) {
                best = cand;
                continue 'rounds;
            }
        }
        return best;
    }
}
