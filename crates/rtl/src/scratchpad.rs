//! Scratchpad memory: the perimeter SRAM banks.
//!
//! The paper's array carries a 4 kB SRAM subbank on every north/south
//! perimeter PE, filled by the DMA unit before execution. We model the
//! banks as windows of one unified word-addressed scratchpad: each
//! memory PE owns a private port and its accesses are accounted per
//! bank for energy, but the address space is shared — the paper does
//! not describe a bank-assignment pass, and the kernels' images fit
//! comfortably in the aggregate capacity. Bank conflicts cannot arise
//! because each PE accesses memory through its own port at most once
//! per cycle.

/// Words per 4 kB subbank.
pub const BANK_WORDS: usize = 1024;

/// The unified scratchpad with per-bank access accounting.
///
/// Memory PEs are named by their row-major index in the fabric
/// (`y * width + x`); the access counters are one flat array over
/// every PE of the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scratchpad {
    words: Vec<u32>,
    /// Reads plus writes per PE.
    accesses: Vec<u64>,
}

impl Scratchpad {
    /// Create a scratchpad for a fabric of `pes` PEs, initialized
    /// with `image` (padded with zeros to a whole number of banks).
    pub fn new(image: Vec<u32>, pes: usize) -> Scratchpad {
        let mut words = image;
        let pad = (BANK_WORDS - words.len() % BANK_WORDS) % BANK_WORDS;
        words.extend(std::iter::repeat_n(0, pad));
        Scratchpad {
            words,
            accesses: vec![0; pes],
        }
    }

    /// Word count.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the scratchpad holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Read a word through the port of memory PE `pe`, returning
    /// `None` (and accounting nothing) on an out-of-bounds address: a
    /// fault-corrupted address becomes a structured protocol
    /// violation, not a process abort.
    pub fn try_read(&mut self, pe: usize, addr: u32) -> Option<u32> {
        let word = self.words.get(addr as usize).copied()?;
        self.accesses[pe] += 1;
        Some(word)
    }

    /// Write a word through the port of memory PE `pe`, returning
    /// `false` (and writing nothing) on an out-of-bounds address (see
    /// [`Scratchpad::try_read`]).
    pub fn try_write(&mut self, pe: usize, addr: u32, value: u32) -> bool {
        let Some(slot) = self.words.get_mut(addr as usize) else {
            return false;
        };
        *slot = value;
        self.accesses[pe] += 1;
        true
    }

    /// Accesses (reads + writes) performed by memory PE `pe`.
    pub fn accesses(&self, pe: usize) -> u64 {
        self.accesses[pe]
    }

    /// The final memory image, truncated to `n` words.
    pub fn image(&self, n: usize) -> Vec<u32> {
        self.words[..n.min(self.words.len())].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_to_whole_banks() {
        let s = Scratchpad::new(vec![1, 2, 3], 1);
        assert_eq!(s.len(), BANK_WORDS);
        let s2 = Scratchpad::new(vec![0; BANK_WORDS + 1], 1);
        assert_eq!(s2.len(), 2 * BANK_WORDS);
    }

    #[test]
    fn read_write_and_accounting() {
        let mut s = Scratchpad::new(vec![10, 20, 30], 64);
        assert_eq!(s.try_read(0, 1), Some(20));
        assert!(s.try_write(59, 2, 99));
        assert_eq!(s.try_read(59, 2), Some(99));
        assert_eq!(s.accesses(0), 1);
        assert_eq!(s.accesses(59), 2);
        assert_eq!(s.accesses(45), 0);
    }

    #[test]
    fn image_returns_prefix() {
        let mut s = Scratchpad::new(vec![1, 2, 3, 4], 1);
        assert!(s.try_write(0, 0, 9));
        assert_eq!(s.image(4), vec![9, 2, 3, 4]);
    }

    #[test]
    fn try_accessors_reject_oob_without_accounting() {
        let mut s = Scratchpad::new(vec![1, 2, 3], 1);
        assert_eq!(s.try_read(0, BANK_WORDS as u32), None);
        assert!(!s.try_write(0, u32::MAX, 9));
        assert_eq!(s.accesses(0), 0, "failed accesses are not billed");
        assert_eq!(s.try_read(0, 1), Some(2));
        assert!(s.try_write(0, 2, 9));
        assert_eq!(s.accesses(0), 2);
        assert_eq!(s.image(3), vec![1, 2, 9]);
    }
}
