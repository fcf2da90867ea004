//! The resilient-transfer loop of §3 under a lossy channel: when transit
//! corrupts an upload, the CRC rejects the frame (or the hash ack
//! mismatches), the client keeps the file and retries until the server's
//! hash matches — no snapshot is ever lost or duplicated.

use racket_collect::transport::{recv_message, MemTransport, Transport};
use racket_collect::wire::{FrameCodec, Message};
use racket_collect::{
    CollectionServer, CollectorConfig, DataBuffer, ShardedIngest, SnapshotCollector,
};
use racket_device::{Device, DeviceModel};
use racket_types::{
    AndroidId, ApkHash, AppId, DeviceId, InstallId, ParticipantId, PermissionProfile, SimTime,
};
use std::sync::Arc;

const P: ParticipantId = ParticipantId(123_456);
const I: InstallId = InstallId(1_000_000_000);

#[test]
fn corrupted_uploads_are_retried_until_acknowledged() {
    let store = Arc::new(ShardedIngest::new(1));
    let server = CollectionServer::new([P], Arc::clone(&store));
    server.handle(Message::SignIn {
        participant: P,
        install: I,
    });

    // A device with some snapshots buffered.
    let mut device = Device::new(DeviceId(1), DeviceModel::generic(), AndroidId(1));
    for app in 0..4u32 {
        device.install_app(
            AppId(app),
            SimTime::from_secs(u64::from(app)),
            PermissionProfile::default(),
            ApkHash([app as u8; 16]),
        );
    }
    let mut collector = SnapshotCollector::new(CollectorConfig::default(), I, P);
    let mut buffer = DataBuffer::new();
    for minute in 0..20 {
        for snap in collector.poll(&device, SimTime::from_mins(minute)) {
            buffer.push(&snap);
        }
    }
    buffer.flush();
    let total_files = buffer.pending_count();
    assert!(total_files >= 1);

    // Lossy channel: every 2nd chunk has one bit flipped.
    let (mut client, mut server_end) = MemTransport::pair();
    client.corrupt_every(2);

    let mut attempts = 0;
    let mut delivered = 0;
    while buffer.pending_count() > 0 {
        attempts += 1;
        assert!(attempts < 100, "retry loop did not converge");
        let f = buffer.pending().next().expect("pending file").clone();
        client
            .send(
                &Message::SnapshotUpload {
                    install: I,
                    file_id: f.file_id,
                    fast: f.fast,
                    payload: f.data.clone(),
                }
                .encode(),
            )
            .expect("send");
        // Server side: a corrupted frame fails CRC decode; the connection
        // would be dropped and the client retries on a fresh one.
        let mut codec = FrameCodec::new();
        match recv_message(&mut server_end, &mut codec) {
            Ok(Some(msg)) => {
                if let Some(Message::UploadAck { file_id, sha256 }) = server.handle(msg) {
                    if buffer.acknowledge(file_id, sha256) {
                        delivered += 1;
                    }
                }
            }
            Ok(None) => {}
            Err(_) => {
                // CRC failure: drain the channel residue (fresh connection).
                let mut sink = [0u8; 4096];
                while server_end.try_recv(&mut sink).unwrap_or(0) > 0 {}
            }
        }
    }

    assert_eq!(delivered, total_files);
    assert!(
        attempts > total_files,
        "corruption must have forced retries"
    );
    // Every snapshot arrived exactly once despite the lossy channel.
    let rec = store.record(I).expect("record");
    assert_eq!(rec.n_fast + rec.n_slow, server.stats().snapshots);
    assert_eq!(server.stats().files as usize, total_files);
    assert_eq!(
        server.stats().bad_uploads,
        0,
        "CRC caught corruption before parsing"
    );
}
