/// How a layer's weights are assigned to checksum groups.
///
/// * [`Grouping::Contiguous`] — group `j` holds weights `j·G .. (j+1)·G` (the paper's
///   "without interleave" baseline).
/// * [`Grouping::Interleaved`] — group members are originally `num_groups` locations
///   apart with an additional diagonal offset `t` (the paper's Fig. 3 scheme with the
///   extra offset of 3). The offset, like the secret key, can differ per layer and be
///   kept secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grouping {
    /// Plain contiguous groups of `G` weights.
    Contiguous,
    /// Strided ("interleaved") groups with a diagonal offset.
    Interleaved {
        /// The per-row offset `t` added to the stride mapping (the paper uses 3).
        offset: usize,
    },
}

impl Grouping {
    /// The paper's default interleaving (offset `t = 3`).
    pub fn interleaved() -> Self {
        Grouping::Interleaved { offset: 3 }
    }
}

/// The group layout of one layer: how each of `len` weights maps to one of
/// `num_groups` groups of (at most) `group_size` weights.
///
/// The layout is a bijection between (padded) weight indices and (group, slot) pairs,
/// which is what makes recovery (de-interleaving) exact.
///
/// # Example
///
/// ```
/// use radar_core::{GroupLayout, Grouping};
///
/// let layout = GroupLayout::new(128, 16, Grouping::interleaved());
/// assert_eq!(layout.num_groups(), 8);
/// assert!(layout.members(0).count() <= 16);
/// // Every member maps back to group 0.
/// assert!(layout.members(0).all(|i| layout.group_of(i) == 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupLayout {
    len: usize,
    group_size: usize,
    num_groups: usize,
    grouping: Grouping,
}

impl GroupLayout {
    /// Creates the layout for a layer of `len` weights with groups of `group_size`.
    ///
    /// The last group is implicitly padded (the paper pads layers whose size is not a
    /// multiple of `G`); padded slots simply have no member index.
    ///
    /// # Panics
    ///
    /// Panics if `len` or `group_size` is zero.
    pub fn new(len: usize, group_size: usize, grouping: Grouping) -> Self {
        assert!(len > 0, "layer length must be non-zero");
        assert!(group_size > 0, "group size must be non-zero");
        let num_groups = len.div_ceil(group_size);
        GroupLayout {
            len,
            group_size,
            num_groups,
            grouping,
        }
    }

    /// Number of weights in the layer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the layer has no weights.
    ///
    /// [`new`](Self::new) rejects empty layers today, but the contract is computed from
    /// `len` rather than hard-coded so it survives future construction paths
    /// (deserialization, incremental builders) that may not share that assertion.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured group size `G`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of groups (`⌈len / G⌉`).
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The grouping strategy.
    pub fn grouping(&self) -> Grouping {
        self.grouping
    }

    /// The group that weight `index` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn group_of(&self, index: usize) -> usize {
        assert!(
            index < self.len,
            "weight index {index} out of bounds for layer of {}",
            self.len
        );
        match self.grouping {
            Grouping::Contiguous => index / self.group_size,
            Grouping::Interleaved { offset } => {
                let row = index / self.num_groups; // slot within the group
                let col = index % self.num_groups;
                (col + row * offset) % self.num_groups
            }
        }
    }

    /// The slot (position within its group) of weight `index`; slots order the masked
    /// summation and therefore which key bit applies.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn slot_of(&self, index: usize) -> usize {
        assert!(
            index < self.len,
            "weight index {index} out of bounds for layer of {}",
            self.len
        );
        match self.grouping {
            Grouping::Contiguous => index % self.group_size,
            Grouping::Interleaved { .. } => index / self.num_groups,
        }
    }

    /// The original weight indices belonging to `group`, in slot order, as an
    /// allocation-free iterator. Padded slots (beyond the end of the layer) are
    /// omitted.
    ///
    /// # Panics
    ///
    /// Panics if `group >= num_groups`.
    pub fn members(&self, group: usize) -> Members {
        assert!(
            group < self.num_groups,
            "group {group} out of bounds for {} groups",
            self.num_groups
        );
        Members {
            layout: *self,
            group,
            slots: 0..self.group_size,
        }
    }

    /// Layer length rounded up to a whole number of groups.
    pub fn padded_len(&self) -> usize {
        self.num_groups * self.group_size
    }
}

/// One group's original weight indices in slot order; see [`GroupLayout::members`].
///
/// Slot `s` of group `g` is weight `g·G + s` under contiguous grouping and, under
/// interleaving with `n` groups and offset `t`, weight `s·n + ((g − s·t) mod n)` —
/// slot-row `s`, rotated back by `s·t`.
#[derive(Debug, Clone)]
pub struct Members {
    layout: GroupLayout,
    group: usize,
    slots: std::ops::Range<usize>,
}

impl Iterator for Members {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let GroupLayout {
            len,
            group_size,
            num_groups: n,
            grouping,
        } = self.layout;
        for slot in self.slots.by_ref() {
            let index = match grouping {
                Grouping::Contiguous => self.group * group_size + slot,
                Grouping::Interleaved { offset } => {
                    slot * n + (self.group + n - (slot * offset) % n) % n
                }
            };
            if index < len {
                return Some(index);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_layout_matches_division() {
        let layout = GroupLayout::new(100, 16, Grouping::Contiguous);
        assert_eq!(layout.num_groups(), 7);
        assert_eq!(layout.group_of(0), 0);
        assert_eq!(layout.group_of(15), 0);
        assert_eq!(layout.group_of(16), 1);
        assert!(layout.members(6).eq(96..100));
    }

    #[test]
    fn interleaved_members_are_scattered() {
        let layout = GroupLayout::new(128, 16, Grouping::interleaved());
        let members: Vec<usize> = layout.members(0).collect();
        assert_eq!(members.len(), 16);
        // Consecutive members differ by at least num_groups - offset.
        for pair in members.windows(2) {
            assert!(
                pair[1] - pair[0] >= layout.num_groups() - 3,
                "members too close: {pair:?}"
            );
        }
    }

    #[test]
    fn group_of_and_members_are_consistent() {
        for grouping in [
            Grouping::Contiguous,
            Grouping::interleaved(),
            Grouping::Interleaved { offset: 5 },
        ] {
            let layout = GroupLayout::new(200, 32, grouping);
            for g in 0..layout.num_groups() {
                for i in layout.members(g) {
                    assert_eq!(
                        layout.group_of(i),
                        g,
                        "{grouping:?}: index {i} not in group {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_weight_belongs_to_exactly_one_group() {
        for grouping in [Grouping::Contiguous, Grouping::interleaved()] {
            let layout = GroupLayout::new(150, 16, grouping);
            let mut seen = vec![0usize; 150];
            for g in 0..layout.num_groups() {
                for i in layout.members(g) {
                    seen[i] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{grouping:?}: partition property violated"
            );
        }
    }

    #[test]
    fn slots_are_unique_within_a_group() {
        let layout = GroupLayout::new(128, 16, Grouping::interleaved());
        for g in 0..layout.num_groups() {
            let mut slots: Vec<usize> = layout.members(g).map(|i| layout.slot_of(i)).collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), layout.members(g).count());
        }
    }

    #[test]
    fn interleaving_separates_contiguous_neighbours() {
        // The knowledgeable attacker pairs flips that are contiguous-group neighbours;
        // interleaving must place neighbouring weights in different groups.
        let layout = GroupLayout::new(1024, 64, Grouping::interleaved());
        let mut separated = 0;
        for i in 0..63 {
            if layout.group_of(i) != layout.group_of(i + 1) {
                separated += 1;
            }
        }
        assert!(
            separated >= 60,
            "only {separated}/63 contiguous neighbours separated"
        );
    }

    #[test]
    fn is_empty_is_computed_from_len() {
        // Regression: `is_empty` used to hard-code `false` instead of consulting `len`,
        // which would silently lie for any future construction path that admits
        // zero-length layouts.
        for len in [1usize, 5, 100] {
            let layout = GroupLayout::new(len, 4, Grouping::Contiguous);
            assert!(!layout.is_empty());
            assert_eq!(layout.len(), len);
        }
        // `new` rejects len == 0, but other construction paths may not; build the value
        // directly to pin the contract for the empty case.
        let empty = GroupLayout {
            len: 0,
            group_size: 4,
            num_groups: 0,
            grouping: Grouping::Contiguous,
        };
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn group_of_out_of_bounds_panics() {
        GroupLayout::new(10, 4, Grouping::Contiguous).group_of(10);
    }
}
