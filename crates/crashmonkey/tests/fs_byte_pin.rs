//! Byte pins of the four simulated file systems: what each one writes to its
//! device, in which order and with which flags, and what a mount (and a
//! recovery session) reads back from every crash state, digested into one
//! literal per file system and era.
//!
//! The tier-1 test runs a fixed operation list that reaches every `Op`
//! kind, every `FallocMode`, every write mode (a ranged `msync` after an
//! `mwrite`, a `dwrite` past the committed size), a directory fsync and
//! operations that fail, at a buggy era and at `Patched`. It also pins each
//! file system's exact `Unmountable` text for a corrupted and for a missing
//! tree blob. The `#[ignore]`d release test profiles the benchmark's seq-2
//! space the way a sweep does and digests every recorded IO stream and the
//! state recovered from every checkpoint:
//! `cargo test --release -p b3-crashmonkey --test fs_byte_pin -- --ignored`.
//!
//! A refactor of a file system's persistence or recovery path that changes
//! no byte leaves every literal here in place.

use b3_ace::{Bounds, WorkloadGenerator};
use b3_analyze::Digest128;
use b3_block::{
    BlockDevice, CowSnapshotDevice, DiskImage, IoFlags, IoLog, IoRecord, RecordingDevice,
    BLOCK_SIZE,
};
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig};
use b3_fs_cow::CowFsSpec;
use b3_fs_flash::FlashFsSpec;
use b3_fs_journal::JournalFsSpec;
use b3_fs_veri::VeriFsSpec;
use b3_vfs::diskfmt::{BlobRef, SuperBlock};
use b3_vfs::exec::Executor;
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::snapshot::LogicalSnapshot;
use b3_vfs::workload::{parse_workload, FileSet};
use b3_vfs::{FsResult, KernelEra};

const DEVICE_BLOCKS: u64 = 4096;

/// Every file system at the era with the most of its bugs switched on (and
/// CowFs also at the benchmark's era), and patched.
fn specs() -> Vec<(String, Box<dyn FsSpec>)> {
    use KernelEra::*;
    let mut specs: Vec<(String, Box<dyn FsSpec>)> = Vec::new();
    for era in [V3_13, V4_16, Patched] {
        specs.push((format!("cowfs@{era}"), Box::new(CowFsSpec::new(era))));
    }
    for era in [V4_4, Patched] {
        specs.push((format!("flashfs@{era}"), Box::new(FlashFsSpec::new(era))));
    }
    for era in [V4_15, Patched] {
        specs.push((
            format!("journalfs@{era}"),
            Box::new(JournalFsSpec::new(era)),
        ));
    }
    for era in [V4_16, Patched] {
        specs.push((format!("verifs@{era}"), Box::new(VeriFsSpec::new(era))));
    }
    specs
}

/// The operation list: every `Op` kind, every fallocate mode, hooks on
/// failing operations, and each file system's bug triggers.
const OPS: &str = "
    mkdir A
    mkdir B
    creat A/foo
    write A/foo 0 8192
    sync
    link A/foo A/bar
    write A/foo append
    fsync A/foo
    symlink A/foo B/sym
    mkfifo B/fifo
    setxattr A/foo user.k v1
    fsync B
    falloc A/foo alloc 12288 4096
    falloc A/foo keep_size 16384 8192
    fdatasync A/foo
    falloc A/foo zero_range 0 1000
    falloc A/foo zero_range_keep_size 20000 12000
    fsync A/foo
    falloc A/foo punch_hole 4096 4096
    fsync A/foo
    mmap A/foo 0 8192
    mwrite A/foo 0 4096
    msync A/foo 0 4096
    mwrite A/foo 4096 100
    fsync A/foo
    creat foo
    sync
    write foo 16384 4096
    dwrite foo 0 4096
    write foo 0 100
    fdatasync foo
    truncate A/foo 5000
    removexattr A/foo user.k
    fsync A/bar
    rename A/bar B/bar
    fsync B/bar
    rename A C
    fsync C/foo
    unlink B/bar
    remove B/fifo
    creat B/D
    remove B/D
    mkdir B/E
    rmdir B/E
    fsync B
    link nope B/x
    rmdir B
    write B 0 10
    dwrite B 0 10
    mwrite nope 0 10
    falloc B punch_hole 0 4096
    falloc nope zero_range_keep_size 0 4096
    truncate nope 10
    removexattr C/foo user.none
    fsync nope
    rename C/foo C/foo/x
    creat C/new
    fdatasync C/new
    write C/new 0 4096
    falloc C/new keep_size 4096 8192
    msync C/new 0 4096
    write C/new append
    msync C/new 0 100
    sync
";

fn digest_records(digest: &mut Digest128, log: &IoLog) {
    digest.write_u64(log.len() as u64);
    for record in log.records() {
        match record {
            IoRecord::Write {
                seq,
                index,
                data,
                flags,
            } => {
                digest.write_u32(0);
                digest.write_u64(*seq);
                digest.write_u64(*index);
                digest.write_u32(u32::from(flags.bits()));
                digest.write(data);
            }
            IoRecord::Flush { seq } => {
                digest.write_u32(1);
                digest.write_u64(*seq);
            }
            IoRecord::Checkpoint { seq, id } => {
                digest.write_u32(2);
                digest.write_u64(*seq);
                digest.write_u32(*id);
            }
        }
    }
}

/// Every path's entry, plus its inode number (which no snapshot holds but
/// recovery decides).
fn digest_state(digest: &mut Digest128, fs: &dyn FileSystem) {
    let snapshot = LogicalSnapshot::capture(fs).expect("a mounted file system captures");
    digest.write_u64(snapshot.len() as u64);
    for (path, entry) in snapshot.iter() {
        digest.write_str(path);
        digest.write_u64(fs.metadata(path).expect("captured path").ino);
        digest.write_str(entry.file_type.as_str());
        digest.write_u64(entry.size);
        digest.write_u32(entry.nlink);
        digest.write_u64(entry.blocks);
        match &entry.data {
            Some(data) => digest.write(data),
            None => digest.write_u32(u32::MAX),
        }
        digest.write_str(entry.symlink_target.as_deref().unwrap_or("\0none"));
        for child in entry.children.iter().flatten() {
            digest.write_str(child);
        }
        for (name, value) in &entry.xattrs {
            digest.write_str(name);
            digest.write(value);
        }
    }
}

/// Opens `image` on a recorder with `open` and digests the outcome: the
/// error text, or the recovered state and whatever the open wrote back.
fn digest_open(
    digest: &mut Digest128,
    image: &DiskImage,
    open: impl FnOnce(Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>>,
) {
    let device = RecordingDevice::new(CowSnapshotDevice::new(image.clone()));
    let log = device.log_handle();
    match open(Box::new(device)) {
        Ok(fs) => {
            digest.write_u32(1);
            digest_state(digest, fs.as_ref());
            digest_records(digest, &log.snapshot());
        }
        Err(error) => {
            digest.write_u32(0);
            digest.write_str(&error.to_string());
        }
    }
}

/// Runs [`OPS`] on a fresh file system, forking it halfway, with a
/// checkpoint after every operation; digests each result, the recorded IO
/// (mkfs and unmount included), and every checkpoint's state as `mount`
/// and `recovery_session` recover it.
fn pin_ops(spec: &dyn FsSpec) -> u128 {
    let ops = parse_workload(OPS, "pin").expect("pinned ops parse").ops;
    let device = RecordingDevice::new(CowSnapshotDevice::new(DiskImage::empty(DEVICE_BLOCKS)));
    let mut log = device.log_handle();
    let mut fs = spec.mkfs(Box::new(device)).expect("mkfs");
    let mut executor = Executor::new();
    let mut digest = Digest128::new();
    for (n, op) in ops.iter().enumerate() {
        if n == ops.len() / 2 {
            let device = log.fork_device();
            log = device.log_handle();
            fs = fs.fork(Box::new(device));
        }
        match executor.apply(fs.as_mut(), op) {
            Ok(()) => digest.write_u32(1),
            Err(error) => digest.write_str(&error.to_string()),
        }
        log.checkpoint();
    }
    fs.unmount().expect("clean unmount");
    log.checkpoint();

    let recorded = log.snapshot();
    digest_records(&mut digest, &recorded);
    let mut session = spec.recovery_session();
    for id in 1..=recorded.num_checkpoints() {
        let image = recorded.image_at(id).expect("checkpoint image");
        digest_open(&mut digest, image, |dev| spec.mount(dev));
        digest_open(&mut digest, image, |dev| session.recover(spec, dev, None));
    }
    digest.value()
}

/// The pinned digests of [`pin_ops`], in [`specs`] order.
const OPS_PINS: [u128; 9] = [
    0x2895ada984a7a01bd9f966b34fc0e2f8,
    0x4faeb3e7abf73424bd6da54ef4b8a64c,
    0xc4c1847002765e2b797246cfb16204ae,
    0xb543c3dd7c357b2b48d5906906d79937,
    0x621794021324b1f352caef6dcc906a57,
    0x4f186a1a002c81ee3039fc4a85506e4e,
    0x2ed3ae4c82f7ef31e945df44c3f35f60,
    0xd99c30a505fc71abbfa77587e0351337,
    0xbd865a638aad7d43fbe927b12b01e4a3,
];

#[test]
fn every_file_system_writes_and_recovers_the_pinned_bytes() {
    for ((label, spec), want) in specs().into_iter().zip(OPS_PINS) {
        let got = pin_ops(spec.as_ref());
        assert_eq!(got, want, "{label}: {got:#034x}");
    }
}

/// The error `mount` and a recovery session return for `image`.
fn open_errors(spec: &dyn FsSpec, image: &DiskImage) -> (String, String) {
    let error = |result: FsResult<Box<dyn FileSystem>>| match result {
        Ok(_) => panic!("{}: a broken tree blob mounted", spec.name()),
        Err(error) => error.to_string(),
    };
    let mounted = error(spec.mount(Box::new(CowSnapshotDevice::new(image.clone()))));
    let recovered = error(spec.recovery_session().recover(
        spec,
        Box::new(CowSnapshotDevice::new(image.clone())),
        None,
    ));
    (mounted, recovered)
}

#[test]
fn every_file_system_keeps_its_unmountable_text() {
    const TRUNCATED: &str =
        "file system corrupted: truncated structure: needed 4 bytes, 0 remaining";
    const BAD_MAGIC: &str = "file system corrupted: bad tree magic";
    let pinned: [(&str, String, String); 4] = [
        (
            "cowfs",
            format!("file system unmountable: corrupt committed tree: {BAD_MAGIC}"),
            "file system unmountable: missing committed tree".to_string(),
        ),
        (
            "flashfs",
            format!("file system unmountable: corrupt checkpoint: {BAD_MAGIC}"),
            format!("file system unmountable: corrupt checkpoint: {TRUNCATED}"),
        ),
        (
            "journalfs",
            format!("file system unmountable: corrupt file system image: {BAD_MAGIC}"),
            format!("file system unmountable: corrupt file system image: {TRUNCATED}"),
        ),
        (
            "verifs",
            format!("file system unmountable: corrupt image: {BAD_MAGIC}"),
            format!("file system unmountable: corrupt image: {TRUNCATED}"),
        ),
    ];
    let specs: [Box<dyn FsSpec>; 4] = [
        Box::new(CowFsSpec::patched()),
        Box::new(FlashFsSpec::patched()),
        Box::new(JournalFsSpec::patched()),
        Box::new(VeriFsSpec::patched()),
    ];
    let mut got = Vec::new();
    for spec in &specs {
        let fs = spec
            .mkfs(Box::new(CowSnapshotDevice::new(DiskImage::empty(
                DEVICE_BLOCKS,
            ))))
            .expect("mkfs");
        let image = fs.unmount().expect("unmount").freeze_image();
        let block = image.read_block(0).expect("superblock");
        let magic = u32::from_le_bytes(block[..4].try_into().expect("magic"));
        let mut sb = SuperBlock::decode(&block, magic).expect("superblock");

        // A tree blob whose first block is zeroed.
        let mut corrupted = CowSnapshotDevice::new(image.clone());
        corrupted
            .write_block(sb.tree.start, &[0; BLOCK_SIZE], IoFlags::META)
            .expect("zero the tree blob");
        let (corrupt, corrupt_recovered) = open_errors(spec.as_ref(), &corrupted.freeze());
        assert_eq!(corrupt, corrupt_recovered, "{}: corrupt tree", spec.name());

        // A superblock that points at no tree blob at all.
        let mut missing_tree = CowSnapshotDevice::new(image);
        sb.tree = BlobRef::EMPTY;
        sb.write_to(&mut missing_tree).expect("superblock");
        let (missing, missing_recovered) = open_errors(spec.as_ref(), &missing_tree.freeze());
        assert_eq!(missing, missing_recovered, "{}: missing tree", spec.name());
        got.push((spec.name(), corrupt, missing));
    }
    assert_eq!(got, pinned);
}

/// The benchmark's seq-2 space (its `seq2_*` bounds and shard count),
/// profiled shard by shard through one harness per shard as a sweep does:
/// every workload's recorded IO and outcome, and what `mount` and a
/// recovery session make of each of its checkpoints.
fn pin_bench_seq2(spec: &dyn FsSpec) -> (u64, u64, u128) {
    const SHARDS: usize = 64;
    let bounds = Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into()],
            vec!["foo".into(), "A/foo".into(), "B/foo".into()],
        ),
        ..Bounds::paper_seq2()
    };
    let mut digest = Digest128::new();
    let (mut profiled, mut states) = (0u64, 0u64);
    let mut session = spec.recovery_session();
    for shard in bounds.shards(SHARDS) {
        let monkey = CrashMonkey::with_config(spec, CrashMonkeyConfig::default());
        for workload in WorkloadGenerator::for_shard(bounds.clone(), &shard) {
            let profile = monkey.profile_only(&workload).expect("profiling runs");
            profiled += 1;
            match &profile.exec_error {
                Some(error) => digest.write_str(&error.to_string()),
                None => digest.write_u32(1),
            }
            digest_records(&mut digest, &profile.log);
            for id in 1..=profile.log.num_checkpoints() {
                let image = profile.log.image_at(id).expect("checkpoint image");
                digest_open(&mut digest, image, |dev| spec.mount(dev));
                digest_open(&mut digest, image, |dev| session.recover(spec, dev, None));
                states += 1;
            }
        }
    }
    (profiled, states, digest.value())
}

#[test]
#[ignore = "the benchmark's seq-2 space on four file systems; run explicitly in release builds"]
fn bench_seq2_records_and_recovers_the_pinned_bytes() {
    let pinned: [(u64, u64, u128); 9] = [
        (85_614, 143_123, 0x978c720e825521bfd1f41746ce3eaf37),
        (85_614, 143_123, 0xf365ff86ba54e241ccb4a52940435197),
        (85_614, 143_123, 0x03b2e2bfd060b011e425615456de889c),
        (85_614, 143_123, 0x484739fb54bf55c9b27bdccf48119ead),
        (85_614, 143_123, 0x217c36fec2324b8d36e0be9271cefac9),
        (85_614, 155_532, 0x0a4fb5b86aff8510c39c00a3ab2a14d3),
        (85_614, 155_532, 0xb1364dba6bb35530b1995a79dc876283),
        (85_614, 155_532, 0x90c73d8f61d071600011f948e8e0212f),
        (85_614, 155_532, 0x9cbd2b93506e82e08ae25b27218ba3df),
    ];
    for ((label, spec), want) in specs().into_iter().zip(pinned) {
        let got = pin_bench_seq2(spec.as_ref());
        assert_eq!(
            got, want,
            "{label}: workloads, crash states, {:#034x}",
            got.2
        );
    }
}
