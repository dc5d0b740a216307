//! DRAM model: a base access latency plus a per-channel occupancy
//! timeline that makes concurrent misses queue for channel bandwidth.
//!
//! Each line transfer occupies its channel for
//! `LINE_SIZE / (bytes_per_cycle / channels)` cycles starting no
//! earlier than the channel's previous transfer finished. The returned
//! latency therefore grows when cores collectively exceed the sustained
//! bandwidth — the effect that caps the achievable MB/s the paper
//! reports per phase.

use crate::config::DramConfig;
use crate::{Addr, LINE_SIZE};

/// DRAM channel-occupancy model.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// Cycle at which each channel becomes free.
    free_at: Vec<u64>,
    bytes: u64,
    transfers: u64,
}

impl Dram {
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels >= 1);
        Self { free_at: vec![0; cfg.channels as usize], cfg, bytes: 0, transfers: 0 }
    }

    fn channel_of(&self, line_addr: Addr) -> usize {
        // Line number modulo channels: sequential lines round-robin
        // across channels like an interleaved controller.
        let line = line_addr / LINE_SIZE;
        (line % self.cfg.channels as u64) as usize
    }

    /// Transfer one line beginning at simulated cycle `now`; returns
    /// the total latency in cycles (base latency + queueing + transfer
    /// time).
    pub fn transfer(&mut self, line_addr: Addr, now: u64) -> u32 {
        let ch = self.channel_of(line_addr);
        let per_channel_bw = self.cfg.bytes_per_cycle / self.cfg.channels as f64;
        let transfer_cycles = (LINE_SIZE as f64 / per_channel_bw).ceil() as u64;
        let start = self.free_at[ch].max(now);
        let queue_wait = start - now;
        self.free_at[ch] = start + transfer_cycles;
        self.bytes += LINE_SIZE;
        self.transfers += 1;
        (self.cfg.base_latency as u64 + queue_wait + transfer_cycles) as u32
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total line transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig { base_latency: 100, bytes_per_cycle: 8.0, channels: 2 })
    }

    #[test]
    fn uncontended_latency_is_base_plus_transfer() {
        let mut d = dram();
        // per-channel bw = 4 B/cyc; 64B line -> 16 cycles transfer.
        assert_eq!(d.transfer(0x0, 0), 116);
        assert_eq!(d.bytes(), 64);
        assert_eq!(d.transfers(), 1);
    }

    #[test]
    fn back_to_back_same_channel_queues() {
        let mut d = dram();
        // Lines 0 and 2 map to channel 0 (line index 0 and 2 % 2 == 0).
        let a = d.transfer(0x00, 0);
        let b = d.transfer(0x80, 0);
        assert_eq!(a, 116);
        assert_eq!(b, 116 + 16, "second transfer waits for the channel");
    }

    #[test]
    fn different_channels_do_not_queue() {
        let mut d = dram();
        let a = d.transfer(0x00, 0); // channel 0
        let b = d.transfer(0x40, 0); // channel 1
        assert_eq!(a, b, "independent channels serve in parallel");
    }

    #[test]
    fn late_request_does_not_queue() {
        let mut d = dram();
        d.transfer(0x00, 0);
        // Arrives after channel is free again.
        assert_eq!(d.transfer(0x80, 1000), 116);
    }

    #[test]
    fn sustained_bandwidth_matches_config() {
        let mut d = Dram::new(DramConfig { base_latency: 50, bytes_per_cycle: 16.0, channels: 4 });
        // Saturate: issue 1000 line transfers all at cycle 0; the last
        // to finish has waited out every channel's queue.
        let slowest = (0..1000u64).map(|i| d.transfer(i * 64, 0)).max().unwrap();
        let cycles = u64::from(slowest) - 50;
        let achieved = d.bytes() as f64 / cycles as f64;
        assert!(
            (achieved - 16.0).abs() / 16.0 < 0.05,
            "sustained bw {achieved} should approach configured 16 B/cyc"
        );
    }
}
