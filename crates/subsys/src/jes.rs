//! A JES2-style shared job queue on the CF (§5.1).
//!
//! "Several MVS base system components including JES2, RACF, and XCF are
//! exploiting the Coupling Facility to facilitate or enhance their
//! respective functions in a parallel sysplex configuration."
//!
//! JES2's multi-access spool becomes a CF list structure: every member
//! sees one job queue; jobs carry a class and a priority; any member
//! selects work for the classes its initiators serve; a member failure
//! leaves its executing jobs on a per-member header that peers requeue.
//! The JES2 *checkpoint* — the serialized snapshot of the whole queue —
//! uses the §3.3.3 serialized-list protocol: mainline operations run
//! conditioned on the checkpoint lock being free, so taking a checkpoint
//! momentarily quiesces the queue without per-request locking.

use std::sync::Arc;
use sysplex_core::connection::{CfSubchannel, ListConnection};
use sysplex_core::error::{CfError, CfResult};
use sysplex_core::list::{EntryId, ListParams, ListStructure, LockCondition, WritePosition};
use sysplex_core::wire::{WireReader, WireWriter};
use sysplex_core::{ConnId, MAX_CONNECTORS};

/// Header layout: INPUT, OUTPUT, then one EXECUTION header per member slot.
const INPUT: usize = 0;
const OUTPUT: usize = 1;
const CKPT_LOCK: usize = 0;

/// List geometry for a job queue.
pub fn job_queue_params() -> ListParams {
    ListParams { headers: 2 + MAX_CONNECTORS, lock_entries: 1, max_entries: 1 << 16 }
}

/// Where a job currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Awaiting selection.
    Input,
    /// Executing on a member.
    Executing(ConnId),
    /// Finished, awaiting purge.
    Output,
}

/// One job on the shared queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Queue entry identity.
    pub id: EntryId,
    /// Job name.
    pub name: String,
    /// Execution class (initiators select by class).
    pub class: char,
    /// Priority 0 (highest) ..= 15.
    pub priority: u8,
}

pub(crate) fn encode_job(name: &str, class: char, priority: u8) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(class as u8);
    w.put_u8(priority);
    w.put_str(name);
    w.into_bytes()
}

pub(crate) fn decode_job(id: EntryId, data: &[u8]) -> Option<Job> {
    let mut r = WireReader::new(data);
    let (class, priority, name) = (r.get_u8().ok()? as char, r.get_u8().ok()?, r.get_str().ok()?);
    r.finish().ok()?;
    Some(Job { id, name, class, priority })
}

/// One member's attachment to the shared job queue.
pub struct JobQueue {
    conn: ListConnection,
}

impl JobQueue {
    /// Attach a member through a command subchannel.
    pub fn open(list: &Arc<ListStructure>, sub: CfSubchannel) -> CfResult<Self> {
        if list.header_count() < 2 + MAX_CONNECTORS || list.lock_entry_count() < 1 {
            return Err(CfError::BadParameter("job queue geometry"));
        }
        let conn = ListConnection::attach(list, sub, 1)?;
        conn.register_monitor(INPUT, 0)?;
        Ok(JobQueue { conn })
    }

    fn exec_header(slot: ConnId) -> usize {
        2 + slot.index()
    }

    /// This member's connector slot.
    pub fn slot(&self) -> ConnId {
        self.conn.conn_id()
    }

    /// Submit a job. Queued in priority order (FIFO within a priority).
    pub fn submit(&self, name: &str, class: char, priority: u8) -> CfResult<EntryId> {
        self.conn.enqueue(
            INPUT,
            priority as u64,
            &encode_job(name, class, priority),
            WritePosition::Keyed,
            LockCondition::LockFree(CKPT_LOCK),
        )
    }

    /// Select the best job whose class is in `classes`, claiming it onto
    /// this member's execution header. Priority order; skips classes the
    /// member does not serve.
    pub fn select(&self, classes: &[char]) -> CfResult<Option<Job>> {
        loop {
            let candidates = self.conn.scan(INPUT)?;
            let Some(pick) = candidates
                .iter()
                .find_map(|e| decode_job(e.id, &e.data).filter(|j| classes.contains(&j.class)))
            else {
                return Ok(None);
            };
            // Conditional claim: lose the race and rescan.
            if self.conn.transfer(
                pick.id,
                INPUT,
                Self::exec_header(self.conn.conn_id()),
                WritePosition::Keyed,
                LockCondition::LockFree(CKPT_LOCK),
            )? {
                return Ok(Some(pick));
            }
        }
    }

    /// Job finished: move it to OUTPUT.
    pub fn complete(&self, job: &Job) -> CfResult<()> {
        let moved = self.conn.transfer(
            job.id,
            Self::exec_header(self.conn.conn_id()),
            OUTPUT,
            WritePosition::Tail,
            LockCondition::None,
        )?;
        if moved {
            Ok(())
        } else {
            Err(CfError::NoSuchEntry)
        }
    }

    /// Purge an OUTPUT job.
    pub fn purge(&self, job: &Job) -> CfResult<()> {
        self.conn.delete(job.id, LockCondition::None)
    }

    /// Jobs awaiting selection, in selection order.
    pub fn input_jobs(&self) -> CfResult<Vec<Job>> {
        Ok(self.conn.scan(INPUT)?.into_iter().filter_map(|e| decode_job(e.id, &e.data)).collect())
    }

    /// Jobs executing on a member.
    pub fn executing_on(&self, slot: ConnId) -> CfResult<Vec<Job>> {
        Ok(self
            .conn
            .scan(Self::exec_header(slot))?
            .into_iter()
            .filter_map(|e| decode_job(e.id, &e.data))
            .collect())
    }

    /// Jobs in OUTPUT.
    pub fn output_jobs(&self) -> CfResult<Vec<Job>> {
        Ok(self.conn.scan(OUTPUT)?.into_iter().filter_map(|e| decode_job(e.id, &e.data)).collect())
    }

    /// Requeue a dead member's executing jobs back to INPUT (peer warm
    /// start). Returns how many were recovered.
    pub fn recover_member(&self, dead: ConnId) -> CfResult<usize> {
        let jobs = self.executing_on(dead)?;
        let mut n = 0;
        for job in jobs {
            if self.conn.transfer(
                job.id,
                Self::exec_header(dead),
                INPUT,
                WritePosition::Keyed,
                LockCondition::None,
            )? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Take a checkpoint: quiesce mainline traffic via the serializing
    /// lock, snapshot queue counts, release. Returns (input, executing,
    /// output) counts.
    pub fn checkpoint(&self) -> CfResult<(usize, usize, usize)> {
        while !self.conn.acquire_list_lock(CKPT_LOCK)? {
            std::thread::yield_now();
        }
        let input = self.conn.header_len(INPUT)?;
        let output = self.conn.header_len(OUTPUT)?;
        let mut executing = 0;
        for slot in 0..MAX_CONNECTORS {
            executing += self.conn.header_len(2 + slot)?;
        }
        self.conn.release_list_lock(CKPT_LOCK)?;
        Ok((input, executing, output))
    }

    /// Detach (planned). Executing jobs of this member stay on its header
    /// for peers to recover if it never returns.
    pub fn close(self) -> CfResult<()> {
        self.conn.detach()
    }
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue").field("slot", &self.conn.conn_id()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_core::facility::{CfConfig, CouplingFacility};

    fn facility() -> Arc<CouplingFacility> {
        let cf = CouplingFacility::new(CfConfig::named("CF01"));
        cf.allocate_list_structure("JES2CKPT", job_queue_params()).unwrap();
        cf
    }

    fn open(cf: &Arc<CouplingFacility>) -> JobQueue {
        JobQueue::open(&cf.list_structure("JES2CKPT").unwrap(), cf.subchannel()).unwrap()
    }

    fn queue_pair() -> (Arc<CouplingFacility>, JobQueue, JobQueue) {
        let cf = facility();
        let a = open(&cf);
        let b = open(&cf);
        (cf, a, b)
    }

    #[test]
    fn jobs_select_in_priority_order_by_class() {
        let (_cf, a, b) = queue_pair();
        a.submit("LOWPRI", 'A', 9).unwrap();
        a.submit("BATCH", 'B', 5).unwrap();
        a.submit("URGENT", 'A', 1).unwrap();
        // b serves class A only: picks URGENT first, never BATCH.
        let j1 = b.select(&['A']).unwrap().unwrap();
        assert_eq!(j1.name, "URGENT");
        let j2 = b.select(&['A']).unwrap().unwrap();
        assert_eq!(j2.name, "LOWPRI");
        assert!(b.select(&['A']).unwrap().is_none(), "class B job not selectable");
        assert_eq!(a.input_jobs().unwrap()[0].name, "BATCH");
        // Lifecycle: complete + purge.
        b.complete(&j1).unwrap();
        assert_eq!(b.output_jobs().unwrap()[0].name, "URGENT");
        b.purge(&b.output_jobs().unwrap()[0].clone()).unwrap();
        assert!(b.output_jobs().unwrap().is_empty());
    }

    #[test]
    fn racing_members_never_double_select() {
        let cf = facility();
        let submitter = open(&cf);
        for i in 0..300 {
            submitter.submit(&format!("JOB{i:05}"), 'A', (i % 16) as u8).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..2 {
            let cf = Arc::clone(&cf);
            handles.push(std::thread::spawn(move || {
                let q = open(&cf);
                let mut mine = Vec::new();
                while let Some(job) = q.select(&['A']).unwrap() {
                    mine.push(job.name.clone());
                    q.complete(&job).unwrap();
                }
                mine
            }));
        }
        let all: Vec<String> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        assert_eq!(all.len(), 300);
        let unique: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), 300, "no job executed twice");
        assert_eq!(submitter.output_jobs().unwrap().len(), 300);
    }

    #[test]
    fn dead_member_jobs_requeue_and_rerun() {
        let (_cf, a, b) = queue_pair();
        a.submit("DOOMED", 'A', 3).unwrap();
        let job = a.select(&['A']).unwrap().unwrap();
        assert_eq!(a.executing_on(a.slot()).unwrap().len(), 1);
        let dead_slot = a.slot();
        drop(job);
        // a dies (handle dropped without complete); peer warm-starts it.
        assert_eq!(b.recover_member(dead_slot).unwrap(), 1);
        let rerun = b.select(&['A']).unwrap().unwrap();
        assert_eq!(rerun.name, "DOOMED");
    }

    #[test]
    fn checkpoint_quiesces_mainline_and_counts() {
        let (_cf, a, b) = queue_pair();
        a.submit("ONE", 'A', 1).unwrap();
        let job = a.select(&['A']).unwrap().unwrap();
        a.submit("TWO", 'A', 2).unwrap();
        a.complete(&job).unwrap();
        let (input, executing, output) = b.checkpoint().unwrap();
        assert_eq!((input, executing, output), (1, 0, 1));
        // Mainline resumes after the checkpoint lock releases.
        a.submit("THREE", 'A', 3).unwrap();
    }

    #[test]
    fn submit_rejected_during_checkpoint_hold() {
        let cf = facility();
        let a = open(&cf);
        let holder = cf.connect_list("JES2CKPT", 1).unwrap();
        assert!(holder.acquire_list_lock(CKPT_LOCK).unwrap());
        assert!(matches!(a.submit("BLOCKED", 'A', 1), Err(CfError::LockHeld { .. })));
        holder.release_list_lock(CKPT_LOCK).unwrap();
        a.submit("OK", 'A', 1).unwrap();
    }
}
