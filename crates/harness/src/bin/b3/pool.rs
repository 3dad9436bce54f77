//! The one worker-pool description: how many workers, and over which
//! transport they attach — turned into a `DistribConfig` and a `Transport`.

use std::num::NonZeroUsize;
use std::time::Duration;

use b3_harness::distrib::{
    ChildTransport, DistribConfig, SshTransport, TcpTransport, Transport, WorkerCommand,
};

use crate::args::Args;
use crate::Exit;

/// The shared secret from the environment, for whoever got no `--secret`.
pub fn env_secret() -> Option<String> {
    std::env::var("B3_SWEEP_SECRET")
        .ok()
        .filter(|s| !s.is_empty())
}

/// The pool flags, with their defaults.
pub struct PoolSpec {
    pub workers: usize,
    secret: Option<String>,
    tcp: bool,
    listen: Option<String>,
    ssh: Vec<String>,
    remote_worker: String,
    challenge_loopback: bool,
    respawn: usize,
}

impl PoolSpec {
    pub fn new() -> PoolSpec {
        PoolSpec {
            workers: 4,
            secret: env_secret(),
            tcp: false,
            listen: None,
            ssh: Vec::new(),
            remote_worker: "b3".into(),
            challenge_loopback: false,
            respawn: 0,
        }
    }

    /// Consumes the current flag if it is a pool flag.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> Result<bool, Exit> {
        match flag {
            "--workers" => self.workers = args.parsed::<NonZeroUsize>()?.get(),
            "--transport" => {
                self.tcp = match args.value()?.as_str() {
                    "stdio" => false,
                    "tcp" => true,
                    other => {
                        return Err(Exit::usage(format!(
                            "unknown transport {other:?} (expected stdio or tcp; \
                             use --listen/--ssh for remote workers)"
                        )))
                    }
                };
            }
            "--listen" => self.listen = Some(args.value()?),
            "--ssh" => self.ssh.push(args.value()?),
            "--remote-worker" => self.remote_worker = args.value()?,
            "--secret" => self.secret = Some(args.value()?),
            "--challenge-loopback" => self.challenge_loopback = true,
            "--respawn" => self.respawn = args.parsed()?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The coordinator settings and the transport these flags describe.
    /// `--ssh` wins over `--listen`, which wins over `--transport`. Boxed
    /// because the choice is runtime; coordinators see `&dyn Transport`.
    pub fn build(&self) -> Result<(DistribConfig, Box<dyn Transport>), Exit> {
        let config = DistribConfig {
            workers: self.workers,
            respawn_budget: self.respawn,
            ..DistribConfig::default()
        };
        if !self.ssh.is_empty() {
            let remote = [self.remote_worker.clone(), "worker".into()];
            return Ok((
                config,
                Box::new(SshTransport::new(self.ssh.clone(), remote)),
            ));
        }
        // Local workers are this executable, re-run as `b3 worker …`.
        let program = std::env::current_exe()
            .map_err(|e| Exit::runtime(format!("cannot find my own executable: {e}")))?;
        let mut command = WorkerCommand::new(program).arg("worker");
        if !self.tcp && self.listen.is_none() {
            return Ok((config, Box::new(ChildTransport::new(command))));
        }
        let addr = self.listen.as_deref().unwrap_or("127.0.0.1:0");
        let mut transport = TcpTransport::bind(addr)?.with_loopback_auth(self.challenge_loopback);
        if let Some(secret) = &self.secret {
            // Non-loopback workers (all of them under --challenge-loopback)
            // must answer the HMAC challenge with the same value.
            transport = transport.with_secret(secret.clone());
            if self.challenge_loopback {
                command = command.arg("--secret").arg(secret.clone());
            }
        }
        let local = transport.local_addr();
        if self.listen.is_some() {
            transport = transport.with_accept_timeout(Duration::from_secs(300));
            println!(
                "worker listener on {local} — start workers with: b3 worker --connect {local}"
            );
        } else {
            transport = transport.with_launcher(command);
            println!("worker listener on {local} (tcp loopback, workers launched here)");
        }
        Ok((config, Box::new(transport)))
    }
}
