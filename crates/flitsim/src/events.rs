//! Deadlock post-mortems for the wormhole simulator — what a user
//! debugging a routing algorithm needs to see.

/// A message waiting on an edge whose VCs are all held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitFor {
    /// The blocked message.
    pub message: u32,
    /// The edge it needs a VC on.
    pub edge: u32,
    /// Messages currently holding that edge's VCs.
    pub holders: Vec<u32>,
}

/// Post-mortem of a deadlocked configuration: the full wait-for relation
/// and one concrete cycle through it (a deadlock always contains one:
/// every blocked message waits on messages that are themselves blocked).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Every blocked message with the edge it wants and that edge's
    /// holders.
    pub waits: Vec<WaitFor>,
    /// A cycle `m₀ → m₁ → … → m₀` where each message waits on a VC held by
    /// the next.
    pub cycle: Vec<u32>,
}

impl DeadlockReport {
    /// Builds the report from the wait-for relation; finds a cycle by
    /// following first-holder pointers (guaranteed to close, since every
    /// holder in a deadlock is itself blocked).
    pub fn from_waits(waits: Vec<WaitFor>) -> Self {
        let next: std::collections::HashMap<u32, u32> = waits
            .iter()
            .filter_map(|w| w.holders.first().map(|&h| (w.message, h)))
            .collect();
        let mut cycle = Vec::new();
        if let Some((&start, _)) = next.iter().min() {
            let mut seen = std::collections::HashMap::new();
            let mut cur = start;
            loop {
                if let Some(&pos) = seen.get(&cur) {
                    cycle = cycle.split_off(pos);
                    break;
                }
                seen.insert(cur, cycle.len());
                cycle.push(cur);
                match next.get(&cur) {
                    Some(&n) => cur = n,
                    None => {
                        cycle.clear(); // holder outside the blocked set:
                        break; // not a true cycle from this start
                    }
                }
            }
        }
        Self { waits, cycle }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_extraction_two_way() {
        let waits = vec![
            WaitFor {
                message: 0,
                edge: 10,
                holders: vec![1],
            },
            WaitFor {
                message: 1,
                edge: 11,
                holders: vec![0],
            },
        ];
        let rep = DeadlockReport::from_waits(waits);
        assert_eq!(rep.cycle.len(), 2);
        assert!(rep.cycle.contains(&0) && rep.cycle.contains(&1));
    }

    #[test]
    fn cycle_extraction_with_tail() {
        // 5 waits on 0, 0 <-> 1 cycle: the tail is trimmed.
        let waits = vec![
            WaitFor {
                message: 5,
                edge: 9,
                holders: vec![0],
            },
            WaitFor {
                message: 0,
                edge: 10,
                holders: vec![1],
            },
            WaitFor {
                message: 1,
                edge: 11,
                holders: vec![0],
            },
        ];
        let rep = DeadlockReport::from_waits(waits);
        assert_eq!(rep.cycle, vec![0, 1]);
    }

    #[test]
    fn empty_waits() {
        let rep = DeadlockReport::from_waits(vec![]);
        assert!(rep.cycle.is_empty());
        assert!(rep.waits.is_empty());
    }
}
