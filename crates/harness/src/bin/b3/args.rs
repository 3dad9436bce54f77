//! The one flag reader: `--flag V` and `--flag=V`, "needs a value", "takes
//! no value", parse errors and unknown flags, all as usage errors (exit 2).

use std::fmt::Display;
use std::str::FromStr;

use crate::Exit;

/// The unread command line plus the flag currently being handled.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    flag: String,
    inline: Option<String>,
}

impl Args {
    pub fn new(argv: Vec<String>) -> Args {
        Args {
            rest: argv.into_iter(),
            flag: String::new(),
            inline: None,
        }
    }

    /// The next bare word (the subcommand names).
    pub fn word(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// Advances to the next flag and returns its name; a `--flag=V`
    /// spelling keeps `V` as the flag's inline value. A value the previous
    /// flag left unread was given to a flag that takes none.
    pub fn next_flag(&mut self) -> Result<Option<String>, Exit> {
        if self.inline.is_some() {
            return Err(Exit::usage(format!("{} takes no value", self.flag)));
        }
        let Some(arg) = self.rest.next() else {
            return Ok(None);
        };
        (self.flag, self.inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        Ok(Some(self.flag.clone()))
    }

    /// The current flag's value: inline, or the next argument.
    pub fn value(&mut self) -> Result<String, Exit> {
        self.inline
            .take()
            .or_else(|| self.rest.next())
            .ok_or_else(|| Exit::usage(format!("{} needs a value", self.flag)))
    }

    /// The current flag's value, parsed (numbers).
    pub fn parsed<T: FromStr<Err: Display>>(&mut self) -> Result<T, Exit> {
        let text = self.value()?;
        text.parse()
            .map_err(|e| Exit::usage(format!("{}: {e}", self.flag)))
    }

    /// The current flag's value, looked up by one of the library's name
    /// parsers (`FsKind::parse`, `KernelEra::parse`, …); `what` names the
    /// kind of thing for the error.
    pub fn named<T>(&mut self, parse: fn(&str) -> Option<T>, what: &str) -> Result<T, Exit> {
        let name = self.value()?;
        parse(&name).ok_or_else(|| Exit::usage(format!("unknown {what} {name:?}")))
    }

    /// The usage error for a flag no parser claimed.
    pub fn unknown(&self) -> Exit {
        Exit::usage(format!("unknown flag {:?}", self.flag))
    }
}
